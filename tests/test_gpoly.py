"""g-polynomials, IH dimensions and their support bounds."""

import pytest

from stringykit.errors import NotEulerian
from stringykit.gpoly import (IHDims, IntPolynomial, g_polynomial,
                              h_polynomial, ih_dims)
from stringykit.lattice import (FacePoset, cone_from_rays,
                                cone_over_polytope, make_gorenstein_pair)

SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]
PENTAGON = [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]
CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def coeffs(p):
    return p.coeffs


def test_simplicial_is_one():
    for rays in ([(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        poset = FacePoset(cone_from_rays(rays))
        assert coeffs(g_polynomial(poset, poset.zero, poset.top)) == {0: 1}


def test_square_h_and_g():
    # the top of a second poset of the cone is the same face by value,
    # and so gives the same answer
    poset = FacePoset(cone_over_polytope(SQUARE))
    for top in (poset.top, FacePoset(cone_over_polytope(SQUARE)).top):
        h = h_polynomial(poset, poset.zero, top)
        assert coeffs(h) == {0: 1, 1: 2, 2: 1}
        g = g_polynomial(poset, poset.zero, top)
        assert coeffs(g) == {0: 1, 1: 1}


def test_pentagon_h_and_g():
    poset = FacePoset(cone_over_polytope(PENTAGON))
    h = h_polynomial(poset, poset.zero, poset.top)
    assert coeffs(h) == {0: 1, 1: 3, 2: 1}
    g = g_polynomial(poset, poset.zero, poset.top)
    assert coeffs(g) == {0: 1, 1: 2}


def test_cube_g():
    # toric h-vector of the cube is (1,5,5,1); g_1 = f_0 - d - 1 = 8 - 4
    poset = FacePoset(cone_over_polytope(CUBE))
    h = h_polynomial(poset, poset.zero, poset.top)
    assert coeffs(h) == {0: 1, 1: 5, 2: 5, 3: 1}
    g = g_polynomial(poset, poset.zero, poset.top)
    assert coeffs(g) == {0: 1, 1: 4}


def test_g_nonnegative_on_all_intervals():
    for verts in (SQUARE, PENTAGON, CUBE):
        poset = FacePoset(cone_over_polytope(verts))
        for a in poset:
            for b in poset:
                if poset.leq(a, b):
                    g = g_polynomial(poset, a, b)
                    assert all(c > 0 for c in coeffs(g).values())


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
    d = ih_dims(poset, poset.zero)
    assert d.absolute_dict() == {0: 1}
    assert d.relative_dict() == {0: 1}


def test_ih_dims_square_cone():
    poset = FacePoset(cone_over_polytope(SQUARE))
    d = ih_dims(poset, poset.top)
    assert d.absolute_dict() == {0: 1, 1: 1}
    assert d.relative_dict() == {2: 1, 3: 1}


def test_ih_dims_simplicial():
    poset = FacePoset(cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    d = ih_dims(poset, poset.top)
    assert d.absolute_dict() == {0: 1}
    assert d.relative_dict() == {3: 1}


def test_relative_is_reversed_absolute():
    for verts in (SQUARE, PENTAGON, CUBE):
        poset = FacePoset(cone_over_polytope(verts))
        for face in poset:
            d = ih_dims(poset, face)
            assert d.relative_dict() == {
                face.dim - e: c for e, c in d.absolute_dict().items()}


def support_bounds_hold(dim, dims):
    """The IH support bounds: every dim positive, absolute degrees in
    [0, dim/2) and relative ones in (dim/2, dim], or 0 when dim = 0."""
    return (all(c > 0 and e >= 0 and (2 * e < dim or e == dim == 0)
                for e, c in dims.absolute)
            and all(c > 0 and e <= dim and (2 * e > dim or e == dim == 0)
                    for e, c in dims.relative))


def test_degree_bounds_pass():
    cones = [cone_from_rays(rays)
             for rays in ([(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    cones += [cone_over_polytope(verts) for verts in (SQUARE, CUBE)]
    for cone in cones:
        pair = make_gorenstein_pair(cone)
        for poset in (pair.poset(), pair.dual_poset()):
            for face in poset:
                assert support_bounds_hold(face.dim, ih_dims(poset, face))


def test_degree_bounds_negative_control():
    # corrupted dims: an absolute class sitting at the half-point
    bad = IHDims(absolute=((1, 1),), relative=((1, 1),))
    assert not support_bounds_hold(2, bad)
    bad2 = IHDims(absolute=((0, 1), (2, 1)), relative=((1, 1), (3, 1)))
    assert not support_bounds_hold(3, bad2)


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


def test_int_polynomial_repr_and_ops():
    p = IntPolynomial({0: 1, 1: 2})
    q = IntPolynomial({1: -2})
    assert (p + q).coeffs == {0: 1}
    assert (p * p).coeffs == {0: 1, 1: 4, 2: 4}
    assert repr(IntPolynomial({0: 1, 1: 4})) == "1 + 4t"
