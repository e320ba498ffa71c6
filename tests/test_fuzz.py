"""Seeded randomized sweeps over small cones: the cheap invariants that
must hold on anything the constructors accept."""

from itertools import product
from random import Random

import pytest

from stringykit.errors import NotFullDimensional, NotPointed
from stringykit.lattice import (FacePoset, cone_from_rays, dot, dual_cone,
                                interval_is_eulerian, points_at_degree,
                                qrank)
from stringykit.gpoly import g_polynomial


def random_cones(seed, count, rank, coord_bound=3, nrays=6):
    rng = Random("fuzz:%d:%d" % (seed, rank))
    out = []
    while len(out) < count:
        rays = []
        for _ in range(nrays):
            v = tuple(rng.randint(-coord_bound, coord_bound)
                      for _ in range(rank))
            if any(v):
                rays.append(v)
        try:
            out.append(cone_from_rays(rays))
        except (NotPointed, NotFullDimensional):
            continue
    return out


@pytest.mark.parametrize("rank,seed", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_dual_involution_and_supports(rank, seed):
    for cone in random_cones(seed, 4, rank):
        dual = dual_cone(cone)
        assert dual_cone(dual) == cone
        for r in cone.rays:
            for h in cone.facet_normals:
                assert dot(r, h) >= 0
        assert qrank(cone.rays) == rank
        assert qrank(cone.facet_normals) == rank


@pytest.mark.parametrize("rank,seed", [(2, 3), (3, 3)])
def test_face_posets_eulerian_and_graded(rank, seed):
    for cone in random_cones(seed, 3, rank):
        poset = FacePoset(cone)
        assert interval_is_eulerian(poset, poset.zero, poset.top)
        assert poset.zero.dim == 0
        assert poset.top.dim == rank
        # dual faces across the pairing have complementary dimensions
        dual = dual_cone(cone)
        dposet = FacePoset(dual)
        from stringykit.sheaves import annihilator_face
        for f in poset:
            assert f.dim + annihilator_face(f, dposet).dim == rank


@pytest.mark.parametrize("seed", [5, 6])
def test_g_polynomials_nonnegative_on_random_cones(seed):
    for cone in random_cones(seed, 3, 3):
        poset = FacePoset(cone)
        for face in poset:
            g = g_polynomial(poset, poset.zero, face)
            assert all(c > 0 for c in g.values())
            assert g[0] == 1


def box_scan(cone, k, lam):
    bound = max(abs(x) for r in cone.rays for x in r) * k + 1
    n = cone.ambient_rank
    out = []
    for x in product(range(-bound, bound + 1), repeat=n):
        if dot(x, lam) == k and cone.contains(x):
            out.append(x)
    return out


@pytest.mark.parametrize("seed", [7, 8])
def test_point_slices_match_box_scan(seed):
    rng = Random("fuzzpts:%d" % seed)
    for cone in random_cones(seed, 2, 2, coord_bound=2):
        poset = FacePoset(cone)
        # a strictly positive functional: sum of facet normals works
        lam = tuple(sum(h[j] for h in cone.facet_normals)
                    for j in range(2))
        if any(dot(r, lam) <= 0 for r in cone.rays):
            continue
        for k in (1, 2, rng.randint(3, 4)):
            got = points_at_degree(poset.top, k, lam)
            assert sorted(got) == sorted(box_scan(cone, k, lam))
