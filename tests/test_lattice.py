"""Cone construction, duality, faces and point enumeration."""

from itertools import combinations, product

import pytest

from stringykit.errors import (DegeneratePolytope, NotFullDimensional,
                               NotGorenstein, NotPointed, UnboundedSlice)
from stringykit.lattice import (FacePoset, cone_from_rays, cone_over_polytope,
                                dot, dual_cone, dual_face, interior_points,
                                interval_is_eulerian, make_gorenstein_pair,
                                points_at_degree, primitive, span_coords,
                                qrank)

P2_TRIANGLE = [(1, 0), (0, 1), (-1, -1)]
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def corpus_pairs():
    """The pairs of the four corpus jobs."""
    return [make_gorenstein_pair(cone_from_rays([(1,)])),
            make_gorenstein_pair(cone_over_polytope([(-1,), (1,)])),
            make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE)),
            make_gorenstein_pair(cone_over_polytope(SQUARE))]


def saturated_facets(face):
    """The facets holding every ray of the face, recomputed by dot
    products: every facet for the zero face."""
    return frozenset(j for j, h in enumerate(face.cone.facet_normals)
                     if all(dot(r, h) == 0 for r in face.rays))


def brute_force_facets(rays):
    """Independent facet-normal oracle: candidate normals from (n-1)-subsets
    of rays, kept when they support the whole cone along a hyperplane."""
    n = len(rays[0])
    found = set()
    for sub in combinations(rays, n - 1):
        if qrank(sub) != n - 1:
            continue
        # integer normal of the hyperplane spanned by sub
        from stringykit.lattice import integer_kernel
        ker = integer_kernel(list(sub), n)
        assert len(ker) == 1
        h = primitive(ker[0])
        for cand in (h, tuple(-x for x in h)):
            vals = [dot(r, cand) for r in rays]
            if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
                if qrank([r for r in rays if dot(r, cand) == 0]) == n - 1:
                    found.add(cand)
    return found


def test_quadrant_self_dual():
    c = cone_from_rays([(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert set(c.facet_normals) == {(1, 0), (0, 1)}


def test_triangle_cone_facets_against_brute_force():
    rays = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]
    c = cone_from_rays(rays)
    assert set(c.facet_normals) == brute_force_facets([tuple(r) for r in rays])
    assert len(c.facet_normals) == 3
    for h in c.facet_normals:
        assert sum(1 for r in c.rays if dot(r, h) == 0) == 2


def test_redundant_ray_dropped():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_line_not_pointed():
    with pytest.raises(NotPointed):
        cone_from_rays([(1, 0), (-1, 0)])
    with pytest.raises(NotPointed):
        cone_from_rays([(1,), (-1,)])


def test_low_dimensional_rejected():
    with pytest.raises(NotFullDimensional):
        cone_from_rays([(1, 1)])


def test_dual_cone_examples():
    quad = cone_from_rays([(1, 0), (0, 1)])
    assert dual_cone(quad) == quad
    tri = cone_over_polytope(P2_TRIANGLE)
    dual = dual_cone(tri)
    assert set(dual.rays) == {(2, -1, 1), (-1, 2, 1), (-1, -1, 1)}


@pytest.mark.parametrize("rays", [
    [(1, 0), (0, 1)],
    [(1, 0), (1, 2)],
    [(1, 0, 1), (0, 1, 1), (-1, -1, 1)],
    [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
])
def test_dual_cone_involution(rays):
    c = cone_from_rays(rays)
    assert dual_cone(dual_cone(c)) == c
    for r in c.rays:
        for h in c.facet_normals:
            assert dot(r, h) >= 0


def test_gorenstein_quadrant():
    pair = make_gorenstein_pair(cone_from_rays([(1, 0), (0, 1)]))
    assert pair.deg == (1, 1)
    assert pair.deg_dual == (1, 1)
    assert pair.rank == 2


def test_gorenstein_triangle():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    assert pair.deg == (0, 0, 1)
    assert pair.deg_dual == (0, 0, 1)


def test_gorenstein_quadric_cone():
    # (1,0),(1,2) generates the A1 quadric cone, which is Gorenstein:
    # both height-one systems solve integrally.
    pair = make_gorenstein_pair(cone_from_rays([(1, 0), (1, 2)]))
    assert pair.deg_dual == (1, 0)
    assert set(pair.dual.rays) == {(0, 1), (2, -1)}
    assert pair.deg == (1, 1)
    for s in pair.dual.rays:
        assert dot(pair.deg, s) == 1


def test_not_gorenstein():
    # dual rays (0,1),(3,-1): 3*x1 - x2 = 1 with x2 = 1 forces x1 = 2/3
    with pytest.raises(NotGorenstein):
        make_gorenstein_pair(cone_from_rays([(1, 0), (1, 3)]))
    # four rays in rank three: <ray, x> = 1 has no solution at all
    with pytest.raises(NotGorenstein):
        make_gorenstein_pair(cone_from_rays([(1, 0, 1), (0, 1, 1),
                                             (-1, 0, 1), (0, -1, 2)]))


def test_cone_over_polytope():
    seg = cone_over_polytope([(-1,), (1,)])
    assert set(seg.rays) == {(-1, 1), (1, 1)}
    tri = cone_over_polytope(P2_TRIANGLE)
    assert set(tri.rays) == {(1, 0, 1), (0, 1, 1), (-1, -1, 1)}
    with pytest.raises(DegeneratePolytope):
        cone_over_polytope([(3,)])


def test_face_counts():
    assert len(FacePoset(cone_from_rays([(1, 0), (0, 1)]))) == 4
    assert len(FacePoset(cone_over_polytope(P2_TRIANGLE))) == 8
    assert len(FacePoset(cone_over_polytope(SQUARE))) == 10


def test_face_dims_triangle():
    poset = FacePoset(cone_over_polytope(P2_TRIANGLE))
    dims = sorted(f.dim for f in poset)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]
    assert poset.zero.dim == 0
    assert poset.top.dim == 3


@pytest.mark.parametrize("build", [
    lambda: cone_from_rays([(1, 0), (0, 1)]),
    lambda: cone_from_rays([(1, 0), (1, 2)]),
    lambda: cone_over_polytope(P2_TRIANGLE),
    lambda: cone_over_polytope(SQUARE),
])
def test_face_poset_eulerian(build):
    poset = FacePoset(build())
    assert interval_is_eulerian(poset, poset.zero, poset.top)


def test_dual_face_involution_and_dims():
    for verts in (P2_TRIANGLE, SQUARE):
        pair = make_gorenstein_pair(cone_over_polytope(verts))
        poset = pair.poset()
        for f in poset:
            fd = dual_face(pair, f)
            assert f.dim + fd.dim == pair.rank
            assert dual_face(pair, fd) == f
        # order reversal
        for f in poset:
            for g in poset:
                if poset.leq(f, g):
                    assert pair.dual_poset().leq(dual_face(pair, g),
                                                 dual_face(pair, f))


def test_dual_face_extremes():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    assert dual_face(pair, pair.poset().zero) == pair.dual_poset().top
    assert dual_face(pair, pair.poset().top) == pair.dual_poset().zero


def test_dual_face_of_ray():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    ray = pair.poset().by_rays[((1, 0, 1),)]
    fd = dual_face(pair, ray)
    assert fd.dim == 2
    assert all(dot((1, 0, 1), s) == 0 for s in fd.rays)


def dense_scan_oracle(face, k, lam, interior_only=False):
    """Independent enumeration: scan a generous box, test membership via
    the ray heights and facet inequalities recomputed from scratch."""
    n = face.cone.ambient_rank
    if face.dim == 0:
        pts = [(0,) * n] if k == 0 else []
        return pts
    active = saturated_facets(face)
    bound = max(k * max(abs(x) for x in r) for r in face.rays) + 1
    out = []
    for x in product(range(-bound, bound + 1), repeat=n):
        if dot(x, lam) != k:
            continue
        vals = [dot(x, h) for h in face.cone.facet_normals]
        if any(v < 0 for v in vals):
            continue
        if any(vals[j] != 0 for j in active):
            continue
        if interior_only and any(
                vals[j] == 0 for j in range(len(vals)) if j not in active):
            continue
        out.append(x)
    return out


def test_points_at_degree_triangle():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    top = pair.poset().top
    pts = points_at_degree(top, 1, pair.deg_dual)
    assert set(pts) == {(1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, 1)}
    assert interior_points(top, pts) == [(0, 0, 1)]
    # Ehrhart counts 1 + (1+t+t^2)/(1-t)^3 expansion: L(1)=4, L(2)=10
    assert len(points_at_degree(top, 2, pair.deg_dual)) == 10


def test_points_at_degree_against_dense_scan():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    lam = pair.deg_dual
    for face in pair.poset():
        for k in range(4):
            got = points_at_degree(face, k, lam)
            assert sorted(got) == sorted(dense_scan_oracle(face, k, lam))
            assert sorted(interior_points(face, got)) == sorted(
                dense_scan_oracle(face, k, lam, interior_only=True))


def test_points_at_degree_zero():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    top = pair.poset().top
    assert points_at_degree(top, 0, pair.deg_dual) == [(0, 0, 0)]
    assert interior_points(top, [(0, 0, 0)]) == []
    zero = pair.poset().zero
    assert points_at_degree(zero, 0, pair.deg_dual) == [(0, 0, 0)]
    assert interior_points(zero, [(0, 0, 0)]) == [(0, 0, 0)]


def test_interior_points_against_dense_scan():
    """The interior filter of a level equals the scan of the relative
    interior, on every face of both cones of the corpus pairs, at each
    degree k <= dim + 2 that a hat model reads."""
    for pair in corpus_pairs():
        for poset, lam in ((pair.poset(), pair.deg_dual),
                           (pair.dual_poset(), pair.deg)):
            for face in poset:
                for k in range(face.dim + 3):
                    level = points_at_degree(face, k, lam)
                    assert interior_points(face, level) == \
                        dense_scan_oracle(face, k, lam, interior_only=True), \
                        (face, k)


def test_face_active_is_the_saturated_facets():
    for pair in corpus_pairs():
        for poset in (pair.poset(), pair.dual_poset()):
            for face in poset:
                assert face.active == saturated_facets(face), face


def test_unbounded_slice():
    c = cone_from_rays([(1, 0), (0, 1)])
    top = FacePoset(c).top
    with pytest.raises(UnboundedSlice):
        points_at_degree(top, 1, (1, 0))


def test_span_coords_integral():
    pair = make_gorenstein_pair(cone_over_polytope(P2_TRIANGLE))
    for face in pair.poset():
        lam = pair.deg_dual
        if face.dim == 0:
            continue
        for k in (1, 2):
            for p in points_at_degree(face, k, lam):
                coords = span_coords(face, p)
                rebuilt = tuple(
                    sum(c * b[j] for c, b in zip(coords, face.span_basis))
                    for j in range(3))
                assert rebuilt == p
        # span(face) meets the cone in the face, so a degree-one point
        # of the cone off the face is outside its span
        if face.dim < 3:
            on_face = set(points_at_degree(face, 1, lam))
            off = next(p for p in pair.delta() if p not in on_face)
            with pytest.raises(ValueError):
                span_coords(face, off)
