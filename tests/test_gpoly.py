"""g-polynomials, the IH dimensions they give and their support bounds."""

import pytest

from stringykit.errors import NotEulerian
from stringykit.gpoly import _h_sum, g_polynomial
from stringykit.lattice import (FacePoset, cone_from_rays,
                                cone_over_polytope, make_gorenstein_pair)

SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]
PENTAGON = [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def test_simplicial_is_one():
    for rays in ([(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        poset = FacePoset(cone_from_rays(rays))
        assert g_polynomial(poset, poset.zero, poset.top) == {0: 1}


def test_square_h_and_g():
    # the top of a second poset of the cone is the same face by value,
    # and so gives the same answer
    poset = FacePoset(cone_over_polytope(SQUARE))
    for top in (poset.top, FacePoset(cone_over_polytope(SQUARE)).top):
        assert _h_sum(poset, poset.zero, top, {}) == {0: 1, 1: 2, 2: 1}
        assert g_polynomial(poset, poset.zero, top) == {0: 1, 1: 1}


def test_pentagon_h_and_g():
    poset = FacePoset(cone_over_polytope(PENTAGON))
    assert _h_sum(poset, poset.zero, poset.top, {}) == {0: 1, 1: 3, 2: 1}
    assert g_polynomial(poset, poset.zero, poset.top) == {0: 1, 1: 2}


def test_cube_g():
    # toric h-vector of the cube is (1,5,5,1); g_1 = f_0 - d - 1 = 8 - 4
    poset = FacePoset(cone_over_polytope(CUBE))
    assert _h_sum(poset, poset.zero, poset.top, {}) == \
        {0: 1, 1: 5, 2: 5, 3: 1}
    assert g_polynomial(poset, poset.zero, poset.top) == {0: 1, 1: 4}


def test_g_nonnegative_on_all_intervals():
    for verts in (SQUARE, PENTAGON, CUBE):
        poset = FacePoset(cone_over_polytope(verts))
        for a in poset:
            for b in poset:
                if poset.leq(a, b):
                    g = g_polynomial(poset, a, b)
                    assert all(c > 0 for c in g.values())


def test_alternating_sum_identity():
    for verts in (SQUARE, PENTAGON):
        poset = FacePoset(cone_over_polytope(verts))
        for a in poset:
            for b in poset:
                if poset.leq(a, b) and b.dim > a.dim:
                    assert sum((-1) ** x.dim
                               for x in poset.interval(a, b)) == 0


def test_ih_dims_point():
    poset = FacePoset(cone_over_polytope(SQUARE))
    assert g_polynomial(poset, poset.zero, poset.zero) == {0: 1}


def test_ih_dims_square_cone():
    poset = FacePoset(cone_over_polytope(SQUARE))
    assert g_polynomial(poset, poset.zero, poset.top) == {0: 1, 1: 1}


def test_ih_dims_simplicial():
    poset = FacePoset(cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert g_polynomial(poset, poset.zero, poset.top) == {0: 1}


def support_bounds_hold(dim, dims):
    """The IH support bounds on the coefficients of g([0, face]): every
    dim positive and every degree in [0, dim/2), or 0 when dim = 0."""
    return all(c > 0 and e >= 0 and (2 * e < dim or e == dim == 0)
               for e, c in dims.items())


def test_degree_bounds_pass():
    cones = [cone_from_rays(rays)
             for rays in ([(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    cones += [cone_over_polytope(verts) for verts in (SQUARE, CUBE)]
    for cone in cones:
        pair = make_gorenstein_pair(cone)
        for poset in (pair.poset(), pair.dual_poset()):
            for face in poset:
                assert support_bounds_hold(
                    face.dim, g_polynomial(poset, poset.zero, face))


def test_degree_bounds_negative_control():
    # corrupted dims: an absolute class sitting at the half-point
    assert not support_bounds_hold(2, {1: 1})
    assert not support_bounds_hold(3, {0: 1, 2: 1})


class _FakeElem:
    def __init__(self, dim, tag):
        self.dim = dim
        self.tag = tag

    def key(self):
        return self.tag


class _FakePoset:
    """Rank-2 'interval' with three atoms: odd Euler sum, not Eulerian."""

    def __init__(self):
        self.zero = _FakeElem(0, "bot")
        self.top = _FakeElem(2, "top")
        self.atoms = [_FakeElem(1, i) for i in range(3)]
        self.elems = [self.zero] + self.atoms + [self.top]

    def leq(self, a, b):
        return a is b or a is self.zero or b is self.top

    def interval(self, a, b):
        return [x for x in self.elems if self.leq(a, x) and self.leq(x, b)]


def test_not_eulerian_rejected():
    poset = _FakePoset()
    with pytest.raises(NotEulerian):
        g_polynomial(poset, poset.zero, poset.top)
