"""Scalar representation: integral rationals are Python ints, true
fractions are Fractions, and no value is ever a float."""

from fractions import Fraction
from random import Random

from stringykit.jacobian import coefficient_function, random_coefficients
from stringykit.koszul import _columns, _dhat_piece, _levels, v_basis
from stringykit.lattice import cone_over_polytope, make_gorenstein_pair
from stringykit.linalg import Echelon, kernel_basis, rational
from stringykit.sheaves import BigradedComplex, FanSpace, MinimalSheaf


def segment_pair():
    return make_gorenstein_pair(cone_over_polytope([(-1,), (1,)]))


SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def p2_pair():
    return make_gorenstein_pair(cone_over_polytope([(1, 0), (0, 1),
                                                    (-1, -1)]))


def _types(values):
    return {type(v) for v in values}


def test_rational_keeps_integral_values_int():
    assert type(rational(3)) is int
    assert type(rational(Fraction(6, 2))) is int
    assert rational(Fraction(6, 2)) == 3
    assert rational("-4/2") == -2
    assert rational(Fraction(1, 2)) == Fraction(1, 2)
    assert type(rational(Fraction(1, 2))) is Fraction


def test_random_coefficients_are_int():
    for pair in (segment_pair(), p2_pair()):
        for side, seed in (("f", 1), ("g", 2)):
            fn = random_coefficients(pair, side, seed)
            assert _types(v for _, v in fn.values) == {int}

            def scaled(c):
                return coefficient_function(
                    pair, side, {p: c * v for p, v in fn.values}).values
            assert _types(v for _, v in scaled(3)) == {int}
            assert _types(v for _, v in scaled(Fraction(1, 2))) \
                <= {int, Fraction}


def test_segment_koszul_columns_are_int():
    pair = segment_pair()
    f = random_coefficients(pair, "f", 1)
    g = random_coefficients(pair, "g", 2)
    seen = set()
    d, dhat = _columns(f, g), _columns(f, g, hat=True)
    for elems in v_basis(pair, 4).values():
        for e in elems:
            seen |= _types(d(e).values())
    levels = _levels(pair)
    for gv in range(5):
        for e in _dhat_piece(levels, pair.rank, gv, 3):
            seen |= _types(dhat(e).values())
    assert seen == {int}


def test_segment_sheaf_columns_are_int():
    pair = segment_pair()
    fan = FanSpace(pair.cone)
    for origin in fan.cells:
        cx = BigradedComplex(MinimalSheaf(fan, origin, 4))
        seen = set()
        for s in range(4):
            for gr in cx.gr_values(s):
                for col in map(cx.d_column, cx.block_basis(gr, s)):
                    seen |= _types(col.values())
        assert seen <= {int}, origin


def test_square_sheaf_lifts_hold_no_integral_fraction():
    """Pivots 2, -2 and 1/2 of the generator echelons leave integral
    lift entries as int, not as Fraction(n, 1)."""
    fan = FanSpace(cone_over_polytope(SQUARE))
    values = [v for origin in fan.cells[:6]
              for lifts in MinimalSheaf(fan, origin, 4).lifts.values()
              for lift in lifts for comp in lift.values()
              for v in comp.values()]
    assert len(values) == 138
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


def test_echelon_keeps_int_rows_with_unit_pivots():
    ech = Echelon()
    assert ech.insert({0: 1, 2: 3}, {0: 1}) == 0
    assert ech.insert({1: -1, 2: 5}, {1: 1}) == 1
    assert ech.insert({0: 1, 1: 1, 2: -2}, {2: 1}) is None
    assert ech.basis_rows() == [{0: 1, 2: 3}, {1: 1, 2: -5}]
    assert [ech.shadow(c) for c in ech.pivot_columns()] == [{0: 1}, {1: -1}]
    for c in ech.pivot_columns():
        for row in (ech.row(c), ech.shadow(c)):
            assert _types(row.values()) == {int}
    rem, sh = ech.reduce({0: 2, 1: 3, 2: 1}, {5: 1})
    assert rem == {2: 10} and sh == {5: 1, 0: -2, 1: 3}
    assert _types(rem.values()) | _types(sh.values()) == {int}
    # a pivot of 2 is divided out exactly, never by a float
    assert ech.insert({2: 2}) == 2
    assert ech.row(2) == {2: 1}
    for c in ech.pivot_columns():
        for row in (ech.row(c), ech.shadow(c)):
            assert float not in _types(row.values())


def _random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.5:
                v = rng.randint(-3, 3)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def test_int_and_fraction_rows_give_the_same_echelon():
    """Seeded property: the same rows given as int or as Fraction give
    equal canonical rows, pivots, reductions and kernels."""
    rng = Random(11)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_rows(rng, nrows, ncols)
        as_frac = [{j: Fraction(v) for j, v in r.items()} for r in rows]
        e_int, e_frac = Echelon(), Echelon()
        for r, q in zip(rows, as_frac):
            assert e_int.insert(r) == e_frac.insert(q)
        assert e_int.basis_rows() == e_frac.basis_rows()
        assert e_int.pivot_columns() == e_frac.pivot_columns()
        for probe in _random_rows(rng, 3, ncols):
            probe_frac = {j: Fraction(v) for j, v in probe.items()}
            assert e_int.reduce(probe) == e_frac.reduce(probe_frac)
            for v in e_int.reduce(probe)[0].values():
                assert type(v) in (int, Fraction)
        assert (kernel_basis(rows).basis_rows()
                == kernel_basis(as_frac).basis_rows())
        for ech in (e_int, e_frac):
            for row in ech.basis_rows():
                for v in row.values():
                    assert type(v) in (int, Fraction)
                    if type(v) is Fraction:
                        assert v.denominator != 1
