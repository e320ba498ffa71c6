"""Connection matrices, their exact derivatives, exact flatness."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from stringykit.errors import DegenerateCoefficients
from stringykit.gkz import (ConnectionData, connection_data,
                            connection_on_hb, curvature_report)
from stringykit.jacobian import (Context, HatModel, coefficient_function,
                                 random_coefficients)
from stringykit.koszul import hb_assemble
from stringykit.lattice import (cone_over_polytope, make_gorenstein_pair)

P2 = [(1, 0), (0, 1), (-1, -1)]


def segment_pair():
    return make_gorenstein_pair(cone_over_polytope([(-1,), (1,)]))


def p2_pair():
    return make_gorenstein_pair(cone_over_polytope(P2))


def frozen_connection(name):
    """Top-block A_n' and d/dg(n) A_n' frozen from the former Q[eps]
    path (one dual-number hat-quotient build per direction n)."""
    doc = json.loads((Path(__file__).parent
                      / "connection_oracle.json").read_text())[name]

    def mat(rows):
        return [[Fraction(x) for x in row] for row in rows]
    value = {tuple(m["n"]): mat(m["matrix"]) for m in doc["matrices"]}
    deriv = {(tuple(m["n"]), tuple(m["nprime"])): mat(m["matrix"])
             for m in doc["derivatives"]}
    return doc["g_seed"], value, deriv


def test_basis_select_zero_face():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    zero = pair.dual_poset().zero
    assert connection_data(zero, g).basis == ((0, 0, 0),)


def test_basis_select_p2_dual():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    sigma = pair.dual_poset().top
    basis = connection_data(sigma, g).basis
    assert len(basis) == 2
    # one monomial per filtration level
    from stringykit.lattice import dot
    assert sorted(dot(b, pair.deg) for b in basis) == [1, 2]


def test_basis_survives_perturbation():
    pair = p2_pair()
    g = random_coefficients(pair, "g", seed=1)
    sigma = pair.dual_poset().top
    basis = connection_data(sigma, g).basis
    vals = dict(g.values)
    first = next(iter(vals))
    vals[first] = vals[first] + Fraction(1, 7)
    g2 = coefficient_function(pair, "g", vals)
    # the monomials chosen at g are chosen, and certified, at g2 as well
    block = ConnectionData(HatModel(sigma, g2, sigma.dim + 2))
    assert block.basis == basis


def test_segment_matrices_frozen_oracle():
    # hand-solved 1x1 block at g = (1, 1, 1) on (-1,1), (0,1), (1,1):
    # A_n0 = -g0/(g0^2 - 4 g- g+),  A_n+- = 2 g-+ /(g0^2 - 4 g- g+)
    pair = segment_pair()
    g = coefficient_function(pair, "g",
                             {(-1, 1): 1, (0, 1): 1, (1, 1): 1})
    sigma = pair.dual_poset().top
    cd = connection_data(sigma, g)
    assert cd.basis == ((0, 1),)
    assert cd.matrices[(0, 1)] == [[Fraction(1, 3)]]
    assert cd.matrices[(1, 1)] == [[Fraction(-2, 3)]]
    assert cd.matrices[(-1, 1)] == [[Fraction(-2, 3)]]
    # and their derivatives, differentiated symbolically, in all three
    # directions: the derivatives come from the reduction, not from the
    # curvature identity
    gm, g0, gp = sympy.symbols("gm g0 gp")
    disc = g0 ** 2 - 4 * gm * gp
    closed = {(0, 1): -g0 / disc, (1, 1): 2 * gm / disc,
              (-1, 1): 2 * gp / disc}
    symbol = {(-1, 1): gm, (0, 1): g0, (1, 1): gp}
    deriv = curvature_report(cd)["derivatives"]
    at = {gm: 1, g0: 1, gp: 1}
    for n, var in symbol.items():
        for nprime, expr in closed.items():
            want = sympy.Rational(sympy.diff(expr, var).subs(at))
            assert deriv[(n, nprime)] == [[Fraction(int(want.p),
                                                    int(want.q))]]


def test_segment_matrices_second_point_differ():
    pair = segment_pair()
    g1 = coefficient_function(pair, "g",
                              {(-1, 1): 1, (0, 1): 1, (1, 1): 1})
    g2 = coefficient_function(pair, "g",
                              {(-1, 1): 2, (0, 1): 1, (1, 1): 1})
    sigma = pair.dual_poset().top
    a1 = connection_data(sigma, g1).matrices[(0, 1)]
    a2 = connection_data(sigma, g2).matrices[(0, 1)]
    assert a1 != a2
    # non-constancy matches the closed form -g0/(g0^2-4g-g+)
    assert a2 == [[Fraction(-1, 1 - 8)]]


def test_segment_flatness_and_symmetry():
    # 1x1 blocks commute trivially, so here plain derivative symmetry
    # is equivalent to the curvature identity and must hold
    pair = segment_pair()
    seed, value, deriv = frozen_connection("segment")
    g = random_coefficients(pair, "g", seed=seed)
    sigma = pair.dual_poset().top
    rep = curvature_report(connection_data(sigma, g))
    assert rep["flat"]
    assert rep["derivative_symmetry"]
    assert rep["commuting"]
    assert rep["matrices"] == value
    assert rep["derivatives"] == deriv


def test_flatness_check_equal_directions():
    pair = segment_pair()
    g = random_coefficients(pair, "g", seed=4)
    sigma = pair.dual_poset().top
    # the pair (n, n) is among the pairs the report checks
    assert curvature_report(connection_data(sigma, g))["flat"]


def test_p2_curvature_identity_exact():
    pair = p2_pair()
    seed, value, deriv = frozen_connection("p2")
    g = random_coefficients(pair, "g", seed=seed)
    sigma = pair.dual_poset().top
    rep = curvature_report(connection_data(sigma, g))
    assert rep["flat"]
    assert rep["dim"] == 2
    # entry by entry against the frozen Q[eps] derivatives
    assert rep["matrices"] == value
    assert rep["derivatives"] == deriv
    # the 2x2 block genuinely fails commutativity, hence also plain
    # derivative symmetry: the curvature identity is the right statement
    assert not rep["commuting"]
    assert not rep["derivative_symmetry"]


def test_connection_blocks_match_hb_summands():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    blocks = connection_on_hb(Context(pair, f, g))
    assert len(blocks) == 2
    dims = sorted(b.dim() for b in blocks)
    assert dims == [1, 2]
    # block dims equal the hatted factors in the assembly
    for b in blocks:
        assert b.dim() == sum(Context().r1_hat(b.sigma, g).values())
    # the zero-face block has no parameters at all
    trivial = next(b for b in blocks if b.dim() == 1)
    assert trivial.matrices == {}
    hb = hb_assemble(Context(pair, f, g))
    assert sum(hb["total"].values()) == 4


@pytest.mark.parametrize("vertices", [P2, [(-1, -1), (2, -1), (-1, 2)]],
                         ids=["p2", "polar_p2"])
def test_block_coordinates_come_from_model_classes(vertices):
    # a block reads coordinates from its model's echelon of classes: one
    # class per basis monomial, and basis[i] has the i-th unit vector
    pair = make_gorenstein_pair(cone_over_polytope(vertices))
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    for block in connection_on_hb(Context(pair, f, g)):
        assert block.model.classes.rank == block.dim()
        for i, b in enumerate(block.basis):
            unit = [int(j == i) for j in range(block.dim())]
            assert block._coordinates(
                block.model.class_reduce({b: 1})) == unit


def test_degenerate_base_point_rejected():
    pair = p2_pair()
    vals = {p: 0 for p in pair.delta_dual()}
    g0 = coefficient_function(pair, "g", vals)
    with pytest.raises(DegenerateCoefficients):
        connection_data(pair.dual_poset().top, g0)
