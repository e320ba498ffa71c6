"""Semigroup rings of faces, logarithmic-derivative ideals, the spaces R1,
and the filtered hat-module variant with its stabilization certificate.

Ring elements are sparse dicts keyed by lattice points.  All quotients
are handled degree by degree through echelon bases, so dimensions and
canonical representatives come out of the same computation.

A ``Context`` is the one way to a per-face object: its methods
``quotient``, ``r1``, ``face_is_nondegenerate``, ``is_nondegenerate``,
``hat_model``, ``r1_hat`` and ``certify`` build graded quotients, R1
spaces, certified hat models and certificates once per job.  A caller
without a job builds a throwaway ``Context()``.
"""

import random
from dataclasses import dataclass, field

from .errors import DegenerateCoefficients, StabilizationFailed
from .lattice import dot, faces, padd, points_at_degree, span_coords
from .linalg import Echelon, rational

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

    def scaled(self, c):
        c = rational(c)
        return CoefficientFunction(
            self.cone, self.lam,
            tuple((p, rational(c * v)) for p, v in self.values))


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


def random_coefficients(pair, side, seed, certify=True, ctx=None):
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
        if not certify or ctx.is_nondegenerate(f):
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
    if face.dim == 0:
        return []
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


class GradedQuotient:
    """C[face]/I_{f,face} truncated at degree D = dim(face) + 2, with
    reduction maps."""

    def __init__(self, face, f, generators=None):
        self.D = face.dim + 2
        gens = log_derivative_elements(face, f) \
            if generators is None else generators
        points = {k: points_at_degree(face, k, f.lam)
                  for k in range(self.D + 1)}
        self._ideal = {}
        self.dims = {}
        for k in range(self.D + 1):
            ech = Echelon()
            if k >= 1:
                for c in points[k - 1]:
                    for gen in gens:
                        vec = {padd(m, c): v for m, v in gen.items()}
                        if vec:
                            ech.insert(vec)
            self._ideal[k] = ech
            self.dims[k] = len(points[k]) - ech.rank

    def reduce(self, k, vec):
        """Canonical representative of vec modulo I_k."""
        rem, _ = self._ideal[k].reduce(vec)
        return rem


@dataclass(frozen=True)
class R1Space:
    """Graded dimensions of the interior image."""
    dims: tuple          # sorted ((degree, dim), ...)

    @classmethod
    def from_levels(cls, data):
        """From the per-level monomial lists of _interior_image."""
        return cls(tuple((k, len(v)) for k, v in data))

    def dims_dict(self):
        return {k: d for k, d in self.dims if d}

    def total(self):
        return sum(d for _, d in self.dims)


def _interior_image(face, lam, D, reduce):
    """Per degree k <= D: the interior monomials p whose classes
    reduce(k, {p: 1}) are new.  One echelon spans all degrees, so a
    class counts only when it is new modulo the lower levels.  The zero
    face has one class, of its point at degree 0, and reads no
    reduction."""
    if face.dim == 0:
        return [(0, [(0,) * face.cone.ambient_rank])]
    img = Echelon()
    out = []
    for k in range(D + 1):
        level = []
        for p in points_at_degree(face, k, lam, interior_only=True):
            rem = reduce(k, {p: 1})
            if rem and img.insert(rem) is not None:
                level.append(p)
        out.append((k, level))
    return out


def _hilbert_numerator(face, lam, upto):
    """Coefficients of (1-t)^dim * Hilb(C[face]) through degree `upto`."""
    d = face.dim
    counts = [len(points_at_degree(face, k, lam)) for k in range(upto + 1)]
    binom = [1]
    for i in range(d):
        binom = [a - b for a, b in zip(binom + [0], [0] + binom)]
    # binom now holds (1-t)^d coefficients with signs
    out = []
    for k in range(upto + 1):
        s = 0
        for i, b in enumerate(binom):
            if i <= k:
                s += b * counts[k - i]
        out.append(s)
    return out


@dataclass(frozen=True)
class HatModuleElement:
    """Finite rational combination of hat-monomials supported on a face."""
    face: object
    coeffs: tuple             # sorted ((point, value), ...)

    def mapping(self):
        return dict(self.coeffs)

    @classmethod
    def monomial(cls, face, point, value=1):
        return cls(face, ((tuple(point), rational(value)),))


def _hat_weights(face, g, mus):
    """Per functional mu: [(n, g(n) mu(n))] over the face's degree-one
    points n, the per-face part of the hat action."""
    pts = [(n, g(n), span_coords(face, n)) for n in _delta_in_face(face, g)]
    return [[(n, gn * sum(m * x for m, x in zip(mu, cn)))
             for n, gn, cn in pts] for mu in mus]


def _hat_action_vec(face, weights, mu, vec):
    """mu . vec for the deformed module structure, as sparse dicts.

    mu [c] = sum over n in the face's degree-one points of
    g(n) mu(n) [n+c]  +  mu(c) [c], with weights = _hat_weights of mu.
    """
    out = {}
    for c, v in vec.items():
        for n, gmu in weights:
            w = gmu * v
            if w:
                key = padd(n, c)
                nv = out.get(key, 0) + w
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        muc = sum(m * cc for m, cc in zip(mu, span_coords(face, c)))
        if muc:
            nv = out.get(c, 0) + muc * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)
    return out


def hat_action(face, g, mu, v):
    """Action of the linear functional mu (coordinates in the span basis)
    on a hat-module element."""
    mu = tuple(mu)
    vec = _hat_action_vec(face, _hat_weights(face, g, [mu])[0], mu,
                          v.mapping())
    return HatModuleElement(face, tuple(sorted(vec.items())))


class HatModel:
    """Truncated model of the hat module modulo the irrelevant ideal.

    Spans mu.[c] over all points c of level <= D-1 and all basis
    functionals mu; class_reduce gives canonical coset representatives
    inside the span of points of level <= D.
    """

    def __init__(self, face, g, D):
        self.face = face
        self.g = g
        self.D = D
        self.lam = g.lam
        pts = []
        for k in range(D + 1):
            pts.extend(points_at_degree(face, k, self.lam))
        self.points = pts
        self.ideal = Echelon()
        # (c, j, mu_j.[c], its new pivot or None), in build order
        self.generators = []
        self._level_data = None
        if face.dim == 0:
            return
        mus = [tuple(1 if i == j else 0 for i in range(face.dim))
               for j in range(face.dim)]
        weights = _hat_weights(face, g, mus)
        for k in range(D):
            for c in points_at_degree(face, k, self.lam):
                for j, mu in enumerate(mus):
                    vec = _hat_action_vec(face, weights[j], mu, {c: 1})
                    pivot = self.ideal.insert(vec) if vec else None
                    self.generators.append((c, j, vec, pivot))

    def class_reduce(self, vec):
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
        """
        on_face = set(_delta_in_face(self.face, self.g))
        coords = {n: span_coords(self.face, n)
                  for n in directions if n in on_face}
        # per functional mu_j: the directions n with mu_j(n) != 0
        terms = [[(n, mu_n[j]) for n, mu_n in coords.items() if mu_n[j]]
                 for j in range(self.face.dim)]
        classes = {}    # (n, c) -> class of [c+n], keyed (n, q)
        ech = Echelon()
        for c, j, vec, pivot in self.generators:
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
        return ech.shadows

    def interior_level_data(self):
        """Per level: the interior monomials with a new class.  Computed
        once per model, which does not change after its build."""
        if self._level_data is None:
            self._level_data = _interior_image(
                self.face, self.lam, self.D,
                lambda _, vec: self.class_reduce(vec))
        return self._level_data


class Context:
    """One job's state: the pair, its coefficient functions f and g, and
    a memo of per-face objects keyed by (kind, face, function).

    ``Context(pair, f, g)`` certifies f and g, which come together or not
    at all; the job-level entry points of ``koszul`` and ``gkz`` read
    them as certified.

    The context is the one builder of per-face objects: each is built on
    its first request only.  A call that raises stores nothing, so it
    raises again on every request.  A quotient stays only while a later
    call can read it: r1 is its last reader, and a function that fails
    the certificate is never read again.  The memo dies with the
    context.
    """

    def __init__(self, pair=None, f=None, g=None):
        if (f is None) != (g is None):
            raise ValueError("f and g are given together or not at all")
        self.pair = pair
        self._memo = {}
        if f is not None:
            self.certify(f, g)
        self.f, self.g = f, g

    def swap(self):
        """The swapped pair's context, f and g exchanged, on this memo."""
        other = Context(self.pair.swap())
        other._memo, other.f, other.g = self._memo, self.g, self.f
        return other

    def _get(self, key, build):
        got = self._memo.get(key)
        if got is None:
            got = build()
            self._memo[key] = got
        return got

    def quotient(self, face, f):
        """The GradedQuotient of the face by the log-derivative ideal."""
        return self._get(("quotient", face, f),
                         lambda: GradedQuotient(face, f))

    def r1(self, face, f):
        """Image of the interior part in the quotient, degree by degree.
        The zero face builds no quotient."""
        def build():
            if face.dim == 0:
                return R1Space.from_levels(_interior_image(face, f.lam, 0,
                                                           None))
            q = self.quotient(face, f)
            return R1Space.from_levels(
                _interior_image(face, f.lam, q.D, q.reduce))
        got = self._get(("r1", face, f), build)
        self._memo.pop(("quotient", face, f), None)
        return got

    def face_is_nondegenerate(self, face, f):
        """Artinian certificate on one face: the quotient vanishes in
        degrees dim+1 and dim+2 and matches the Hilbert numerator through
        degree dim.  It reads the same quotient as r1(face, f)."""
        d = face.dim
        q = self.quotient(face, f)
        if q.dims[d + 1] != 0 or q.dims[d + 2] != 0:
            return False
        numer = _hilbert_numerator(face, f.lam, d)
        return all(q.dims[k] == numer[k] for k in range(d + 1))

    def is_nondegenerate(self, fn):
        """Nondegeneracy of a coefficient function: every face of its
        cone passes the Artinian/Hilbert-series certificate."""
        ok = self._get(("nondegenerate", fn), lambda: all(
            self.face_is_nondegenerate(face, fn) for face in faces(fn.cone)))
        if not ok:
            for key in [k for k in self._memo
                        if k[0] == "quotient" and k[2] == fn]:
                del self._memo[key]
        return ok

    def hat_model(self, face, g):
        """The HatModel at truncation dim+2, certified against the graded
        R1 (per filtration level) at truncations dim+2 and dim+1."""
        def build():
            oracle = self.r1(face, g).dims_dict()
            models = []
            for D in (face.dim + 2, face.dim + 1):
                model = HatModel(face, g, D)
                level_dims = {k: len(v)
                              for k, v in model.interior_level_data() if v}
                if level_dims != oracle:
                    raise StabilizationFailed(
                        "hat dims %r at truncation %d do not match graded "
                        "dims %r" % (level_dims, D, oracle))
                models.append(model)
            return models[0]
        return self._get(("hat", face, g), build)

    def r1_hat(self, face, g):
        """Filtered interior image in the certified hat model."""
        return R1Space.from_levels(
            self.hat_model(face, g).interior_level_data())

    def certify(self, f, g):
        """Raise DegenerateCoefficients unless f and g pass the
        nondegeneracy certificate."""
        for label, fn in (("f", f), ("g", g)):
            if not self.is_nondegenerate(fn):
                raise DegenerateCoefficients(
                    "%s fails the nondegeneracy certificate" % label)
