"""Lattices, pointed rational cones, duality, faces and Gorenstein pairs.

Lattice points are plain tuples of ints.  Cones are full-dimensional and
pointed; everything lower-dimensional lives as a Face of its owner cone,
identified by the set of facets it saturates.  Facet enumeration is the
double description method seeded from a simplicial subcone, which is
plenty at desk scale (rank <= 6, a few dozen rays).

A GorensteinPair holds the FacePosets of its two cones, built once by
``make_gorenstein_pair``; no poset is cached at module level, and faces
of two posets of one cone are equal by value, not by identity.
``interior_points`` filters a face's relative interior out of one level
of ``points_at_degree``, so a level is never scanned twice.
"""

from dataclasses import dataclass, field
from itertools import product
from math import gcd
from operator import add, mul

from .errors import (DegeneratePolytope, NotFullDimensional, NotGorenstein,
                     NotPointed, UnboundedSlice)
from .linalg import exact_rank


def dot(a, b):
    return sum(map(mul, a, b))


def padd(a, b):
    return tuple(map(add, a, b))


def primitive(v):
    """Divide by the gcd of the coordinates; direction is preserved."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def qrank(vectors):
    """Rank over Q of a list of integer vectors."""
    rows = []
    for v in vectors:
        row = {i: x for i, x in enumerate(v) if x}
        if row:
            rows.append(row)
    return exact_rank(rows)


def hnf_rows(rows):
    """Canonical (row Hermite) basis of the lattice spanned by the rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    n = len(mat[0])
    m = len(mat)
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if mat[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][c]), i))
            mat[r], mat[i0] = mat[i0], mat[r]
            a = mat[r][c]
            clean = True
            for i in range(r + 1, m):
                b = mat[i][c]
                if b:
                    q = b // a
                    if q:
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        clean = False
            if clean:
                if mat[r][c] < 0:
                    mat[r] = [-x for x in mat[r]]
                a = mat[r][c]
                for i in range(r):
                    q = mat[i][c] // a
                    if q:
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                r += 1
                break
    return tuple(tuple(row) for row in mat[:r])


def integer_kernel(rows, n):
    """Basis of {x in Z^n : <row, x> = 0 for all rows}, in Hermite form.

    The rows of hnf_rows([A^T | I]) whose A^T part is zero; the kernel of
    an integer matrix is automatically saturated.
    """
    m = len(rows)
    hnf = hnf_rows([tuple(r[j] for r in rows)
                    + tuple(int(i == j) for i in range(n))
                    for j in range(n)])
    return [row[m:] for row in hnf if not any(row[:m])]


def span_lattice_basis(rays, n):
    """Basis of span(rays) intersected with Z^n (the saturated lattice),
    in Hermite form."""
    return tuple(integer_kernel(integer_kernel(rays, n), n))


def span_coords_for(basis, point):
    """Integer coordinates of a lattice point in a span basis in Hermite
    form, whose rows have increasing positive pivots: forward
    substitution over the pivot columns.  Raises ValueError when the
    point is not an integer combination of the rows."""
    rest = list(point)
    out = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(rest[c], row[c])
        if r:
            raise ValueError("point outside the span lattice")
        out.append(q)
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
    if any(rest):
        raise ValueError("point outside the span")
    return tuple(out)


@dataclass(frozen=True)
class Cone:
    """Full-dimensional pointed rational cone.

    rays and facet_normals are primitive, irredundant and lex-sorted, so
    equal cones compare equal.  Every ray pairs >= 0 with every normal.
    """
    rays: tuple
    facet_normals: tuple
    ambient_rank: int


def _simplicial_seed(rays, n):
    """Greedy choice of n linearly independent rays; None if rank < n."""
    chosen = []
    for r in rays:
        if qrank(chosen + [r]) == len(chosen) + 1:
            chosen.append(r)
            if len(chosen) == n:
                return chosen
    return None


def _dual_basis(seed, n):
    """Primitive h_j with <seed_i, h_j> = 0 for i != j and
    <seed_j, h_j> > 0: the one primitive kernel vector of the other
    seed rays, signed."""
    out = []
    for j in range(n):
        (h,) = integer_kernel([s for i, s in enumerate(seed) if i != j], n)
        out.append(h if dot(seed[j], h) > 0 else tuple(-x for x in h))
    return out


def cone_from_rays(rays):
    """Cone generated by the rays, with facet normals by double description.

    Raises NotPointed if the generated cone contains a line and
    NotFullDimensional if the rays do not span the ambient space.
    """
    rays = list(rays)
    if not rays:
        raise ValueError("need at least one ray")
    n = len(rays[0])
    if any(len(r) != n for r in rays):
        raise ValueError("rays of mixed length")
    prim = sorted(set(primitive(tuple(r)) for r in rays))
    seed = _simplicial_seed(prim, n)
    if seed is None:
        # not full-dimensional; still report a line if there is one
        basis = span_lattice_basis(prim, n)
        coords = [span_coords_for(basis, r) for r in prim]
        cone_from_rays(coords)
        raise NotFullDimensional("rays span a proper subspace")

    # extreme rays of the dual cone, refined one halfspace at a time
    ext = _dual_basis(seed, n)
    seed_set = set(seed)
    processed = list(seed)
    tight = {}
    for j, h in enumerate(ext):
        tight[h] = frozenset(i for i, s in enumerate(seed) if dot(s, h) == 0)
    rest = [r for r in prim if r not in seed_set]
    for r in rest:
        k = len(processed)
        vals = {h: dot(r, h) for h in ext}
        plus = [h for h in ext if vals[h] > 0]
        zero = [h for h in ext if vals[h] == 0]
        minus = [h for h in ext if vals[h] < 0]
        fresh = []
        for p in plus:
            for q in minus:
                common = tight[p] & tight[q]
                if qrank([processed[i] for i in common]) != n - 2:
                    continue
                w = tuple(vals[p] * qq - vals[q] * pp for pp, qq in zip(p, q))
                fresh.append(primitive(w))
        processed.append(r)
        new_ext = []
        new_tight = {}
        for h in plus:
            new_ext.append(h)
            new_tight[h] = tight[h]
        for h in zero:
            new_ext.append(h)
            new_tight[h] = tight[h] | {k}
        for w in fresh:
            if w in new_tight:
                continue
            new_ext.append(w)
            new_tight[w] = frozenset(
                i for i, s in enumerate(processed) if dot(s, w) == 0)
        ext = new_ext
        tight = new_tight
    if not ext or qrank(ext) < n:
        raise NotPointed("generated cone contains a line")
    normals = tuple(sorted(ext))

    # extremality filter on the input rays
    keep = []
    for r in prim:
        sat = [h for h in normals if dot(r, h) == 0]
        if qrank(sat) == n - 1:
            keep.append(r)
    out_rays = tuple(sorted(keep))
    for r in out_rays:
        assert all(dot(r, h) >= 0 for h in normals)
    return Cone(out_rays, normals, n)


def dual_cone(c):
    """Swap rays and facet normals; an involution on valid cones."""
    if qrank(c.rays) < c.ambient_rank:
        raise NotFullDimensional("cone is not full-dimensional")
    return Cone(tuple(sorted(c.facet_normals)), tuple(sorted(c.rays)),
                c.ambient_rank)


def cone_over_polytope(vertices):
    """Cone over the polytope placed at height one."""
    verts = [tuple(v) for v in vertices]
    if not verts:
        raise DegeneratePolytope("no vertices")
    n = len(verts[0])
    if any(len(v) != n for v in verts):
        raise ValueError("vertices of mixed length")
    diffs = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
    if qrank([d for d in diffs if any(d)]) < n:
        raise DegeneratePolytope("vertices do not affinely span the space")
    return cone_from_rays([v + (1,) for v in verts])


@dataclass(frozen=True)
class Face:
    """Face of a cone, identified by the facets it saturates."""
    cone: Cone
    active: frozenset
    rays: tuple
    dim: int
    span_basis: tuple

    def key(self):
        return tuple(sorted(self.active))

    def __repr__(self):
        return "Face(dim=%d, rays=%s)" % (self.dim, list(self.rays))


def _make_face(cone, rays, active):
    basis = span_lattice_basis(rays, cone.ambient_rank)
    return Face(cone, active, rays, len(basis), basis)


class FacePoset:
    """All faces of a cone ordered by inclusion; Eulerian with rank = dim."""

    def __init__(self, cone):
        self.cone = cone
        nf = cone.facet_normals
        tight = {r: frozenset(j for j in range(len(nf)) if dot(r, nf[j]) == 0)
                 for r in cone.rays}
        seen = {}
        queue = [tuple(cone.rays)]
        while queue:
            ray_tuple = queue.pop()
            rays = tuple(sorted(ray_tuple))
            # with no rays, every facet: the zero face
            active = frozenset(range(len(nf))).intersection(
                *[tight[r] for r in rays])
            if active in seen:
                continue
            seen[active] = rays
            for j in range(len(nf)):
                if j not in active:
                    queue.append(tuple(r for r in rays if j in tight[r]))
        self.faces = tuple(sorted(
            (_make_face(cone, rays, active) for active, rays in seen.items()),
            key=lambda f: (f.dim, f.rays)))
        self.by_rays = {f.rays: f for f in self.faces}
        self.zero = self.by_rays[()]
        self.top = self.by_rays[tuple(sorted(cone.rays))]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def leq(self, f, g):
        return f.active >= g.active

    def interval(self, a, b):
        return [x for x in self.faces if self.leq(a, x) and self.leq(x, b)]


def interval_is_eulerian(poset, bottom, top):
    """Every subinterval [a, b] of [bottom, top] with a < b has equal even
    and odd rank counts.  Reads only the poset's leq and interval."""
    elems = poset.interval(bottom, top)
    for a in elems:
        for b in elems:
            if a is b or not poset.leq(a, b):
                continue
            if sum((-1) ** x.dim for x in poset.interval(a, b)) != 0:
                return False
    return True


def _solve_height_one(rays):
    """Integral x with <ray, x> = 1 for all rays, or None.

    The kernel of the rows (ray, -1) holds the (x, t) with <ray, x> = t.
    The system has an integral solution exactly when that kernel is one
    primitive vector with t = +-1; the solution is then t x.
    """
    ker = integer_kernel([tuple(r) + (-1,) for r in rays], len(rays[0]) + 1)
    if len(ker) != 1 or abs(ker[0][-1]) != 1:
        return None
    t = ker[0][-1]
    return tuple(t * v for v in ker[0][:-1])


@dataclass(frozen=True)
class GorensteinPair:
    """Dual reflexive Gorenstein cones with their degree elements and
    face posets; the posets take no part in equality or hashing."""
    cone: Cone
    dual: Cone
    deg: tuple
    deg_dual: tuple
    rank: int
    posets: tuple = field(compare=False, repr=False)

    def poset(self):
        return self.posets[0]

    def dual_poset(self):
        return self.posets[1]

    def delta(self):
        """Degree-one points of K (the support of f)."""
        return points_at_degree(self.poset().top, 1, self.deg_dual)

    def delta_dual(self):
        return points_at_degree(self.dual_poset().top, 1, self.deg)

    def swap(self):
        return GorensteinPair(self.dual, self.cone, self.deg_dual, self.deg,
                              self.rank, self.posets[::-1])


def make_gorenstein_pair(K):
    """Degree elements from the two height-one ray systems.

    Raises NotGorenstein when either system has no integral solution.
    """
    deg_dual = _solve_height_one(K.rays)
    if deg_dual is None:
        raise NotGorenstein("rays of the cone admit no integral height-one "
                            "functional")
    Kd = dual_cone(K)
    deg = _solve_height_one(Kd.rays)
    if deg is None:
        raise NotGorenstein("rays of the dual cone admit no integral "
                            "height-one functional")
    return GorensteinPair(K, Kd, deg, deg_dual, K.ambient_rank,
                          (FacePoset(K), FacePoset(Kd)))


def annihilator_face(face, dual_poset):
    """The face of the dual cone pairing to zero with the given face."""
    rays = tuple(sorted(
        s for s in dual_poset.cone.rays
        if all(dot(r, s) == 0 for r in face.rays)))
    return dual_poset.by_rays[rays]


def dual_face(pair, face):
    """theta* = Ann(theta) intersected with the other cone of the pair."""
    if face.cone == pair.cone:
        target = pair.dual_poset()
    elif face.cone == pair.dual:
        target = pair.poset()
    else:
        raise ValueError("face does not belong to this pair")
    return annihilator_face(face, target)


def span_coords(face, point):
    """Integer coordinates of a lattice point of span(face) in span_basis."""
    if face.dim == 0:
        if any(point):
            raise ValueError("point outside the zero face")
        return ()
    return span_coords_for(face.span_basis, point)


def points_at_degree(face, k, lam):
    """Lattice points x of the face with <x, lam> = k, lex-sorted.

    Raises UnboundedSlice unless lam is strictly positive on every ray.
    """
    cone = face.cone
    n = cone.ambient_rank
    zero = (0,) * n
    if k < 0:
        return []
    if face.dim == 0:
        return [zero] if k == 0 else []
    heights = [dot(r, lam) for r in face.rays]
    if any(h <= 0 for h in heights):
        raise UnboundedSlice("grading functional not positive on a ray")
    if k == 0:
        return [zero]
    # integer box around the slice, the hull of k r / h over the rays r
    ranges = []
    for j in range(n):
        tips = [(k * r[j], h) for r, h in zip(face.rays, heights)]
        ranges.append(range(min(-(-t // h) for t, h in tips),
                            max(t // h for t, h in tips) + 1))
    normals = cone.facet_normals
    active = face.active
    out = []
    for x in product(*ranges):
        if dot(x, lam) != k:
            continue
        ok = True
        for j, h in enumerate(normals):
            v = dot(x, h)
            if j in active:
                if v != 0:
                    ok = False
                    break
            elif v < 0:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def interior_points(face, points):
    """The given points of the face that pair strictly positively with
    every facet normal it does not saturate: its relative interior.  The
    zero face saturates every facet, so its point 0 is interior."""
    off = [h for j, h in enumerate(face.cone.facet_normals)
           if j not in face.active]
    return [x for x in points if all(dot(x, h) > 0 for h in off)]
