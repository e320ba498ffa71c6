"""Semigroup rings of faces, logarithmic-derivative ideals, the spaces R1,
and the filtered hat-module variant with its stabilization certificate.

Ring elements are sparse dicts keyed by lattice points.  One class,
``HatModel``, is the ideal model of a face: the graded Jacobian quotient
is the hat model without its deformation term.  Its echelon basis gives
dimensions and canonical representatives in one computation; a graded
model proves its top levels zero without rows (see ``HatModel``).  R1
filters its interior points from the levels the model enumerated, and
its graded dimensions, like every graded dimension here, are a plain
{degree: dim} dict with no zero values.

A ``Context`` is the one way to a per-face object: its methods
``quotient``, ``r1``, ``face_is_nondegenerate``, ``is_nondegenerate``,
``hat_model``, ``r1_hat`` and ``certify`` build graded quotients, R1
dims, certified hat models and certificates once per job, and ``fan``
and ``sheaf_cohomology`` the job's fan and the cohomology of each of
its minimal sheaves.  A caller without a job builds a throwaway
``Context()``; ``is_nondegenerate`` and ``certify`` need a pair, whose
face posets they read.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .errors import DegenerateCoefficients, StabilizationFailed
from .lattice import (dot, interior_points, padd, points_at_degree,
                      span_coords)
from .linalg import Echelon, _add, rational
from .sheaves import FanSpace, _nonzero_cohomology

MAX_RESAMPLE = 32


@dataclass(frozen=True)
class CoefficientFunction:
    """Exact rational map on the degree-one points of one cone of a pair.
    A value is an int when it is integral, else a Fraction."""
    cone: object
    lam: tuple                      # height functional of this side
    values: tuple                   # sorted ((point, value), ...)
    _map: dict = field(default=None, compare=False, repr=False)

    def mapping(self):
        m = object.__getattribute__(self, "_map")
        if m is None:
            m = dict(self.values)
            object.__setattr__(self, "_map", m)
        return m

    def __call__(self, point):
        return self.mapping()[point]

    def domain(self):
        return [p for p, _ in self.values]


def coefficient_function(pair, side, mapping):
    """Build a coefficient function for side "f" (on K) or "g" (on K_dual).

    The domain must be exactly the degree-one points of that cone.
    """
    if side == "f":
        cone, lam = pair.cone, pair.deg_dual
        delta = pair.delta()
    elif side == "g":
        cone, lam = pair.dual, pair.deg
        delta = pair.delta_dual()
    else:
        raise ValueError("side must be 'f' or 'g'")
    mapping = {tuple(p): rational(v) for p, v in dict(mapping).items()}
    if set(mapping) != set(delta):
        raise ValueError("domain must equal the degree-one points")
    return CoefficientFunction(cone, lam,
                               tuple(sorted(mapping.items())))


def random_coefficients(pair, side, seed, ctx=None):
    """Seeded small nonzero integer coefficients, certified nondegenerate.

    Resamples (deterministically) on certificate failure, up to
    MAX_RESAMPLE attempts.  With a context, the quotients built for the
    certificate are the ones later calls on that context read.
    """
    ctx = Context(pair) if ctx is None else ctx
    # string seeding is hashed with sha512, stable across processes
    rng = random.Random("stringykit:%s:%s" % (side, seed))
    delta = pair.delta() if side == "f" else pair.delta_dual()
    for _ in range(MAX_RESAMPLE):
        mapping = {}
        for p in delta:
            v = 0
            while v == 0:
                v = rng.randint(-5, 5)
            mapping[p] = v
        f = coefficient_function(pair, side, mapping)
        if ctx.is_nondegenerate(f):
            return f
    raise DegenerateCoefficients(
        "no nondegenerate sample found in %d draws" % MAX_RESAMPLE)


def _delta_in_face(face, f):
    """Degree-one points of the cone lying on the face."""
    normals = face.cone.facet_normals
    return [m for m in f.domain()
            if all(dot(m, normals[j]) == 0 for j in face.active)]


def log_derivative_elements(face, f):
    """One degree-one element per basis functional mu on span(face):
    sum over m in the face's degree-one points of f(m) mu(m) [m]."""
    pts = _delta_in_face(face, f)
    coords = {m: span_coords(face, m) for m in pts}
    out = []
    for j in range(face.dim):
        elem = {}
        for m in pts:
            c = f(m) * coords[m][j]
            if c:
                elem[m] = c
        out.append(elem)
    return out


def _hilbert_numerator(counts, d):
    """Coefficients of (1-t)^d * sum_k counts[k] t^k through the degree
    of the last count; (1-t)^d has the coefficient comb(d, i) (-1)^i at
    t^i."""
    return [sum(comb(d, i) * (-1) ** i * counts[k - i]
                for i in range(min(d, k) + 1))
            for k in range(len(counts))]


def _hat_action_vec(face, weights, mu, vec):
    """mu . vec for the deformed module structure, as sparse dicts.

    mu [c] = sum over (n, w) in weights of w [n+c]  +  mu(c) [0+c], where
    the weights are the nonzero g(n) mu(n) over the face's degree-one
    points n.  With mu None the deformation term mu(c) [c] is left out.
    """
    zero = (0,) * face.cone.ambient_rank
    out = {}
    for c, v in vec.items():
        terms = list(weights)
        if mu is not None:
            terms.append((zero, sum(m * x for m, x in
                                    zip(mu, span_coords(face, c)))))
        for n, gmu in terms:
            w = gmu * v
            if w:
                _add(out, padd(n, c), w)
    return out


class HatModel:
    """Truncated model of the hat module modulo the irrelevant ideal,
    or with deformed=False of the graded Jacobian quotient.

    Spans mu_j.[c] = L_j [c] + mu_j(c) [c] (or L_j [c]) over all points c
    of level <= D-1 and unit functionals mu_j, in one echelon;
    class_reduce gives canonical coset representatives inside the span
    of points of level <= D.

    The graded model is built level by level (L_j [c] lies in level
    deg c + 1).  A level k is proved zero, not eliminated, when
    (R/I)_(k-1) = 0 and each point of level k is one of level k-1 plus
    one of level 1: I is an ideal of the face's ring R, so R_(k-1) in I
    gives R_1 R_(k-1) in I, which holds every point of level k.  Its
    generators get None pivots, its dims entry is 0 and class_reduce
    drops its terms.  Certification so skips the levels above dim.
    """

    def __init__(self, face, g, D, deformed=True):
        self.face = face
        self.g = g
        self.D = D
        self.deformed = deformed
        self.lam = g.lam
        self.levels = [points_at_degree(face, k, self.lam)
                       for k in range(D + 1)]
        self.points = [p for level in self.levels for p in level]
        self.ideal = Echelon()
        self.zero_levels = set()
        # one new pivot or None per generator, in build order
        self.pivots = []
        rank = Counter()

        def dim(k):
            return 0 if k in self.zero_levels else \
                len(self.levels[k]) - rank[k]

        for k in range(1, D + 1):
            if deformed and k == D:
                self._lower = (self.ideal.copy(), len(self.pivots))
            if not deformed and dim(k - 1) == 0 and self._covered(k):
                self.zero_levels.add(k)
                self.pivots += [None] * (face.dim * len(self.levels[k - 1]))
                continue
            for _, _, vec in self._generators(self.levels[k - 1:k]):
                p = self.ideal.insert(vec) if vec else None
                self.pivots.append(p)
                if p is not None:
                    rank[dot(p, self.lam)] += 1
        self.dims = {k: dim(k) for k in range(D + 1)}
        self._level_data = None

    def lower(self):
        """The deformed model at truncation D - 1, read off this build: up
        to its last level the build inserts the generators of that model
        in the same order, so the echelon it had there is that model's.
        The echelon is held from the build until this first call."""
        ideal, n = self._lower
        self._lower = None
        model = object.__new__(HatModel)
        model.face, model.g, model.lam = self.face, self.g, self.lam
        model.D, model.deformed = self.D - 1, True
        model.levels = self.levels[:-1]
        model.points = [p for level in model.levels for p in level]
        model.ideal, model.zero_levels = ideal, set()
        model.pivots = self.pivots[:n]
        rank = Counter(dot(p, self.lam) for p in model.pivots
                       if p is not None)
        model.dims = {k: len(level) - rank[k]
                      for k, level in enumerate(model.levels)}
        model._level_data = None
        return model

    def _covered(self, k):
        """Each point of level k is one of level k-1 plus one of level 1."""
        below = set(self.levels[k - 1])
        return all(any(tuple(a - b for a, b in zip(x, n)) in below
                       for n in self.levels[1])
                   for x in self.levels[k])

    def _generators(self, levels=None):
        """(c, j, mu_j.[c]) by level of c, then c descending, then j, for c
        in the given levels (default: every level below D).  The leading
        column of mu_j.[c] rises with c, so in this order a new pivot
        mostly lies in no earlier row of the ideal, and inserting it
        back-substitutes next to nothing."""
        weights = [elem.items()
                   for elem in log_derivative_elements(self.face, self.g)]
        mus = [tuple(int(i == j) for i in range(self.face.dim))
               if self.deformed else None for j in range(self.face.dim)]
        for points in self.levels[:self.D] if levels is None else levels:
            for c in reversed(points):
                for j, mu in enumerate(mus):
                    yield c, j, _hat_action_vec(self.face, weights[j], mu,
                                                {c: 1})

    def class_reduce(self, vec):
        if self.zero_levels:
            vec = {p: v for p, v in vec.items()
                   if dot(p, self.lam) not in self.zero_levels}
        rem, _ = self.ideal.reduce(vec)
        return rem

    def row_derivatives(self, directions):
        """d/dg(n) of every reduced ideal row, for each n in directions.

        The generators are affine in g: d/dg(n) mu_j.[c] is mu_j(n)[c+n]
        for n on the face and 0 otherwise.  A second pass replays the
        build (same generators, same order, same pivots), each generator
        carrying the class of its derivative as shadow.  A row
        sum_k y_k L_k then carries sum_k y_k class(dL_k), which is its
        derivative: the derivative of a row vanishes on the pivot
        columns, where the class map is the identity.  Returns
        {pivot: {(n, q): value}} over non-pivot monomials q.

        A generator that is dependent at g while the class of its
        derivative is not zero means the rank of the ideal jumps at g:
        there is no derivative, and DegenerateCoefficients is raised.
        A graded model is refused (ValueError): the generators it skips
        would read as such a jump.
        """
        if not self.deformed:
            raise ValueError("row_derivatives needs a deformed model")
        on_face = set(_delta_in_face(self.face, self.g))
        coords = {n: span_coords(self.face, n)
                  for n in directions if n in on_face}
        # per functional mu_j: the directions n with mu_j(n) != 0
        terms = [[(n, mu_n[j]) for n, mu_n in coords.items() if mu_n[j]]
                 for j in range(self.face.dim)]
        classes = {}    # (n, c) -> class of [c+n], keyed (n, q)
        ech = Echelon()
        for (c, j, vec), pivot in zip(self._generators(), self.pivots):
            shadow = {}
            for n, a in terms[j]:
                cls = classes.get((n, c))
                if cls is None:
                    rem = self.class_reduce({padd(c, n): 1})
                    cls = {(n, q): v for q, v in rem.items()}
                    classes[(n, c)] = cls
                if a == 1:
                    shadow.update(cls)
                else:
                    for key, v in cls.items():
                        shadow[key] = a * v
            if pivot is not None:
                ech.insert(vec, shadow)
                continue
            _, sh = ech.reduce(vec, shadow)
            if sh:
                raise DegenerateCoefficients(
                    "the hat ideal changes rank at the base point")
        del classes     # no longer read: free it before the read-out
        return {c: ech.shadow(c) for c in ech.pivot_columns()}

    def interior_level_data(self):
        """Per level k <= D: the interior monomials of the model's levels
        whose classes are new.  One echelon, ``classes``, spans all levels
        (so a class counts only when new modulo lower levels), the class
        of p with shadow {p: 1}.  Computed once per model, fixed after
        its build."""
        if self._level_data is None:
            self.classes = Echelon()
            out = []
            for k in range(self.D + 1):
                level = []
                for p in interior_points(self.face, self.levels[k]):
                    rem = self.class_reduce({p: 1})
                    if rem and self.classes.insert(rem, {p: 1}) is not None:
                        level.append(p)
                out.append((k, level))
            self._level_data = out
        return self._level_data

    def interior_dims(self):
        """Nonzero dims of the interior image by level, {k: dim}."""
        return {k: len(v) for k, v in self.interior_level_data() if v}


class Context:
    """One job's state: the pair, its coefficient functions f and g, and
    a memo of per-face objects keyed by (kind, face, function), of fans
    keyed by cone and of sheaf cohomologies keyed by origin cell.

    ``set_coefficients`` is the one way to f and g: it certifies them,
    which come together or not at all, and only then sets them.
    ``Context(pair, f, g)`` and ``swap`` go through it, so the job-level
    entry points of ``koszul`` and ``gkz`` read f and g as certified.

    The context is the one builder of per-face objects: each is built on
    its first request only.  A call that raises stores nothing, so it
    raises again on every request.  A quotient stays only while a later
    call can read it: r1 is its last reader, and a function that fails
    the certificate is never read again.  The memo dies with the
    context.
    """

    def __init__(self, pair=None, f=None, g=None):
        self.pair = pair
        self._memo = {}
        self.set_coefficients(f, g)

    def set_coefficients(self, f, g):
        """Certify f and g, then make them this context's."""
        if (f is None) != (g is None):
            raise ValueError("f and g are given together or not at all")
        if f is not None:
            self.certify(f, g)
        self.f, self.g = f, g

    def swap(self):
        """The swapped pair's context, f and g exchanged, on this memo."""
        other = Context(self.pair.swap())
        other._memo = self._memo
        other.set_coefficients(self.g, self.f)
        return other

    def _get(self, key, build):
        got = self._memo.get(key)
        if got is None:
            got = build()
            self._memo[key] = got
        return got

    def quotient(self, face, f):
        """The graded quotient of the face by the log-derivative ideal:
        the hat model of f without its deformation term."""
        return self._get(("quotient", face, f), lambda: HatModel(
            face, f, face.dim + 2, deformed=False))

    def r1(self, face, f):
        """Nonzero dims of the image of the interior part in the quotient,
        {degree: dim}: a copy of the memo's entry, so a caller that
        changes it changes no later answer."""
        got = self._get(("r1", face, f),
                        lambda: self.quotient(face, f).interior_dims())
        self._memo.pop(("quotient", face, f), None)
        return dict(got)

    def face_is_nondegenerate(self, face, f):
        """Artinian certificate on one face: the quotient vanishes in
        degrees dim+1 and dim+2 and matches the Hilbert numerator through
        degree dim.  It reads the same quotient as r1(face, f)."""
        q = self.quotient(face, f)
        numer = _hilbert_numerator([len(v) for v in q.levels[:-2]], face.dim)
        return [q.dims[k] for k in range(q.D + 1)] == numer + [0, 0]

    def is_nondegenerate(self, fn):
        """Nondegeneracy of a coefficient function on a cone of this
        context's pair: every face of its cone passes the
        Artinian/Hilbert-series certificate."""
        pair = self.pair
        if fn.cone not in (pair.cone, pair.dual):
            raise ValueError("coefficient function is not on this pair")
        poset = pair.poset() if fn.cone == pair.cone else pair.dual_poset()
        ok = self._get(("nondegenerate", fn), lambda: all(
            self.face_is_nondegenerate(face, fn) for face in poset))
        if not ok:
            for key in [k for k in self._memo
                        if k[0] == "quotient" and k[2] == fn]:
                del self._memo[key]
        return ok

    def hat_model(self, face, g):
        """The HatModel at truncation dim+2, certified against the graded
        R1 (per filtration level) at truncations dim+2 and dim+1; the
        model at dim+1 is the one its build passed (``HatModel.lower``)."""
        def build():
            oracle = self.r1(face, g)
            model = HatModel(face, g, face.dim + 2)
            for m in (model, model.lower()):
                level_dims = m.interior_dims()
                if level_dims != oracle:
                    raise StabilizationFailed(
                        "hat dims %r at truncation %d do not match graded "
                        "dims %r" % (level_dims, m.D, oracle))
            return model
        return self._get(("hat", face, g), build)

    def fan(self, cone):
        """The FanSpace of a cone of the pair, one per job."""
        return self._get(("fan", cone), lambda: FanSpace(cone))

    def sheaf_cohomology(self, fan, origin, D):
        """Nonzero dims of H(W tensor Lambda*N, d) for the sheaf of the
        fan at origin, by (gr, s) with s <= D - 1; each origin is built
        once per job at the largest D asked so far.  A request at D at
        most the stored one reads the stored dims with s <= D - 1: the
        build is degreewise, so W in total degree <= D is the same for
        both truncations."""
        got = self._memo.get(("sheaf", origin))
        if D < 1 or got is None or got[0] < D:
            got = self._memo[("sheaf", origin)] = (
                D, _nonzero_cohomology(fan, origin, D))
        return {k: d for k, d in got[1].items() if k[1] < D}

    def r1_hat(self, face, g):
        """Nonzero dims of the filtered interior image in the certified
        hat model, {level: dim}, built fresh on every call."""
        return self.hat_model(face, g).interior_dims()

    def certify(self, f, g):
        """Raise DegenerateCoefficients unless f and g pass the
        nondegeneracy certificate."""
        for label, fn in (("f", f), ("g", g)):
            if not self.is_nondegenerate(fn):
                raise DegenerateCoefficients(
                    "%s fails the nondegeneracy certificate" % label)
