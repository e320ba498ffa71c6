"""Double Koszul complex: bases, differentials, both cohomology routes."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from stringykit import koszul, linalg
from stringykit.errors import DegenerateCoefficients, TruncationTooSmall
from stringykit.jacobian import (Context, coefficient_function,
                                 random_coefficients)
from stringykit.koszul import (cohomology_d, cohomology_dhat,
                               decomposition_dims, hb_assemble, v_basis)
from stringykit.lattice import (cone_from_rays, cone_over_polytope, dot,
                                make_gorenstein_pair, points_at_degree)
from stringykit.linalg import exact_pivots
from test_linalg import labelled_rank

P2 = [(1, 0), (0, 1), (-1, -1)]
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def ray_pair():
    return make_gorenstein_pair(cone_from_rays([(1,)]))


def segment_pair():
    return make_gorenstein_pair(cone_over_polytope([(-1,), (1,)]))


def p2_pair():
    return make_gorenstein_pair(cone_over_polytope(P2))


def square_pair():
    return make_gorenstein_pair(cone_over_polytope(SQUARE))


def coeffs_const(pair, side, value=1):
    delta = pair.delta() if side == "f" else pair.delta_dual()
    return coefficient_function(pair, side, {p: value for p in delta})


def dhat_piece(pair, gv, cap):
    """The d-hat piece (gv, cap) as cohomology_dhat reads it."""
    return koszul._dhat_piece(koszul._levels(pair), pair.rank, gv, cap)


def test_v_basis_r1_examples():
    pair = ray_pair()
    basis = v_basis(pair, 1)
    assert basis[0] == [((0,), (0,), ()), ((0,), (0,), (0,))]
    assert len(basis[1]) == 4
    assert set(basis[1]) == {((1,), (0,), ()), ((1,), (0,), (0,)),
                             ((0,), (1,), ()), ((0,), (1,), (0,))}


def test_v_basis_p2_against_enumeration():
    pair = p2_pair()
    basis = v_basis(pair, 2)
    for k in range(3):
        count = 0
        for a in range(k + 1):
            for m in points_at_degree(pair.poset().top, a, pair.deg_dual):
                for n in points_at_degree(pair.dual_poset().top, k - a,
                                          pair.deg):
                    if dot(m, n) == 0:
                        count += 8
        assert len(basis[k]) == count


def brute_force_elements(pair, top_m, top_n):
    """Every (a, b, m, n, S): m of degree a <= top_m on K, n of degree
    b <= top_n on K_dual, <m, n> = 0, S any wedge subset."""
    r = pair.rank
    wedges = [S for ell in range(r + 1) for S in combinations(range(r), ell)]
    for a in range(top_m + 1):
        for m in points_at_degree(pair.poset().top, a, pair.deg_dual):
            for b in range(top_n + 1):
                for n in points_at_degree(pair.dual_poset().top, b,
                                          pair.deg):
                    if dot(m, n) == 0:
                        for S in wedges:
                            yield a, b, (m, n, S)


@pytest.mark.parametrize("build", [ray_pair, segment_pair, p2_pair,
                                   square_pair])
def test_pieces_match_brute_force(build):
    """v_basis at the corpus bound (max_degree 6, so gradings <= 5) and
    the d-hat pieces at the corpus gradings (<= 2 rank) and at every cap
    the corpus reports read (the gradings stabilize by cap 3), both ways
    round."""
    for pair in (build(), build().swap()):
        want = {}
        for a, b, e in brute_force_elements(pair, 5, 5):
            if a + b <= 5:
                want.setdefault(a + b, []).append(e)
        assert v_basis(pair, 5) == \
            {k: sorted(want.get(k, [])) for k in range(6)}
        D = 2 * pair.rank
        elems = list(brute_force_elements(pair, D // 2, 4))
        levels = koszul._levels(pair)
        for gv in range(D + 1):
            for cap in range(5):
                want = sorted(e for a, b, e in elems
                              if b <= cap and 2 * a + len(e[2]) == gv)
                assert koszul._dhat_piece(levels, pair.rank, gv, cap) == \
                    want, (gv, cap)


def test_each_level_set_is_enumerated_once(monkeypatch):
    """A cohomology reads every level set of the two top faces from one
    enumeration, however many pieces read it."""
    pair = p2_pair()
    ctx = Context(pair, random_coefficients(pair, "f", seed=1),
                  random_coefficients(pair, "g", seed=2))
    real = koszul.points_at_degree
    for run in (lambda: cohomology_d(ctx, D=6),
                lambda: cohomology_dhat(ctx, D=6, p_max=8)):
        calls = []

        def counted(face, k, lam):
            calls.append((face.cone, k))
            return real(face, k, lam)
        monkeypatch.setattr(koszul, "points_at_degree", counted)
        run()
        monkeypatch.undo()
        assert calls and len(calls) == len(set(calls))


def test_d_squared_zero():
    for pair, top in ((ray_pair(), 6), (segment_pair(), 6), (p2_pair(), 3)):
        f = random_coefficients(pair, "f", seed=1)
        g = random_coefficients(pair, "g", seed=2)
        basis = v_basis(pair, top)
        d = koszul._columns(f, g)
        for k in range(top):
            for col in (d(e) for e in basis[k]):
                acc = {}
                for elt, v in col.items():
                    for elt2, w in d(elt).items():
                        acc[elt2] = acc.get(elt2, 0) + v * w
                assert not any(acc.values())


def _contract(mvec, S):
    for pos, j in enumerate(S):
        if mvec[j]:
            yield ((-1) ** pos) * mvec[j], S[:pos] + S[pos + 1:]


def _wedge(nvec, S):
    for j in range(len(nvec)):
        if j in S or not nvec[j]:
            continue
        pos = sum(1 for i in S if i < j)
        yield ((-1) ** pos) * nvec[j], tuple(sorted(S + (j,)))


def _add(vec, key, val):
    nv = vec.get(key, 0) + val
    if nv:
        vec[key] = nv
    else:
        vec.pop(key, None)


def oracle_d_column(f, g, elt):
    """d of one element, every product computed for it alone."""
    m1, n1, S = elt
    col = {}
    for m in f.domain():
        m2 = tuple(a + b for a, b in zip(m, m1))
        if f(m) and dot(m2, n1) == 0:
            for sign, S2 in _contract(m, S):
                _add(col, (m2, n1, S2), sign * f(m))
    for n in g.domain():
        n2 = tuple(a + b for a, b in zip(n, n1))
        if g(n) and dot(m1, n2) == 0:
            for sign, S2 in _wedge(n, S):
                _add(col, (m1, n2, S2), sign * g(n))
    return col


def oracle_dhat_column(f, g, elt):
    m1, n1, S = elt
    col = oracle_d_column(f, g, elt)
    for sign, S2 in _wedge(n1, S):
        _add(col, (m1, n1, S2), sign)
    return col


def _typed(col):
    return {key: (type(v), v) for key, v in col.items()}


def test_columns_match_the_per_element_oracle():
    """The column builders of cohomology_d and cohomology_dhat, read in
    piece order as the engine reads them, give the oracle's column on
    every element of the P2 d pieces (D = 6) and d-hat pieces (cap <= 4),
    and so does a fresh builder per element."""
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    pieces = {}
    for k, elems in v_basis(pair, 5).items():
        for e in elems:
            pieces.setdefault((k, koszul._tau_d(pair, e)), []).append(e)
    column = koszul._columns(f, g)
    for elems in pieces.values():
        for e in elems:
            want = _typed(oracle_d_column(f, g, e))
            assert _typed(column(e)) == want, e
            assert _typed(koszul._columns(f, g)(e)) == want, e
    column = koszul._columns(f, g, hat=True)
    count = 0
    for gv in range(2 * pair.rank + 1):
        for cap in range(1, 5):
            for e in dhat_piece(pair, gv, cap):
                want = _typed(oracle_dhat_column(f, g, e))
                assert _typed(column(e)) == want, e
                assert _typed(koszul._columns(f, g, hat=True)(e)) == want, e
                count += 1
    assert sum(map(len, pieces.values())) == 5368 and count > 5000


def test_d_zero_function():
    pair = p2_pair()
    f0 = coeffs_const(pair, "f", 0)
    g0 = coeffs_const(pair, "g", 0)
    cols = [koszul._columns(f0, g0)(e) for e in v_basis(pair, 1)[1]]
    assert all(not c for c in cols)


def test_d_r1_hand_block():
    # r=1, f=a, g=b: d on (0,0,{0}) = a (1,0,()); the wedge term vanishes
    pair = ray_pair()
    f = coefficient_function(pair, "f", {(1,): Fraction(3)})
    g = coefficient_function(pair, "g", {(1,): Fraction(5)})
    d = koszul._columns(f, g)
    col = d(((0,), (0,), (0,)))
    assert col == {((1,), (0,), ()): Fraction(3)}
    col0 = d(((0,), (0,), ()))
    assert col0 == {((0,), (1,), (0,)): Fraction(5)}


def test_cohomology_r1_all_zero():
    pair = ray_pair()
    f = coeffs_const(pair, "f", 2)
    g = coeffs_const(pair, "g", 3)
    rep = cohomology_d(Context(pair, f, g), D=5)
    assert all(d == 0 for d in rep.dims.values())


def test_degenerate_rejected():
    pair = p2_pair()
    f0 = coeffs_const(pair, "f", 0)
    g = random_coefficients(pair, "g", seed=1)
    with pytest.raises(DegenerateCoefficients):
        cohomology_d(Context(pair, f0, g), D=3)


def test_truncations_below_one_grading_rejected():
    pair = ray_pair()
    ctx = Context(pair, coeffs_const(pair, "f", 2), coeffs_const(pair, "g", 3))
    with pytest.raises(TruncationTooSmall):
        cohomology_d(ctx, D=0)
    with pytest.raises(TruncationTooSmall):
        cohomology_dhat(ctx, D=2, p_max=1)


def test_thm_main_p2_three_seeds():
    pair = p2_pair()
    for seed in (1, 2, 3):
        f = random_coefficients(pair, "f", seed=seed)
        g = random_coefficients(pair, "g", seed=seed + 100)
        rep = cohomology_d(Context(pair, f, g), D=6)
        deco = decomposition_dims(Context(pair, f, g))
        for k in range(6):
            assert rep.dims[k] == deco["total"].get(k, 0), (seed, k)
        assert sum(rep.dims.values()) == 4


def test_thm_main_segment_and_ray():
    for pair in (ray_pair(), segment_pair()):
        for seed in (1, 2):
            f = random_coefficients(pair, "f", seed=seed)
            g = random_coefficients(pair, "g", seed=seed + 7)
            rep = cohomology_d(Context(pair, f, g), D=5)
            deco = decomposition_dims(Context(pair, f, g))
            for k in range(5):
                assert rep.dims[k] == deco["total"].get(k, 0)


def test_decomposition_p2_split():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=4)
    g = random_coefficients(pair, "g", seed=5)
    deco = decomposition_dims(Context(pair, f, g))
    # contributions only from the zero face and the full cone, 2 each
    by_dim = {rec["theta_dim"]: sum(rec["dims"].values())
              for rec in deco["per_face"]}
    assert by_dim == {0: 2, 3: 2}
    assert deco["total"] == {1: 2, 2: 2}


def test_swap_symmetry():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=6)
    g = random_coefficients(pair, "g", seed=7)
    a = decomposition_dims(Context(pair, f, g))["total"]
    b = decomposition_dims(Context(pair.swap(), g, f))["total"]
    assert sum(a.values()) == sum(b.values())
    assert a == b


def test_rescaling_invariance():
    pair = segment_pair()
    f = random_coefficients(pair, "f", seed=8)
    g = random_coefficients(pair, "g", seed=9)
    base = cohomology_d(Context(pair, f, g), D=4).dims
    f2 = coefficient_function(pair, "f", {p: Fraction(5, 2) * v
                                         for p, v in f.values})
    scaled = cohomology_d(Context(pair, f2, g), D=4).dims
    assert base == scaled


def test_dhat_extra_term():
    pair = ray_pair()
    f = coefficient_function(pair, "f", {(1,): Fraction(1)})
    g = coefficient_function(pair, "g", {(1,): Fraction(1)})
    # extra term on (m, n, ()) adds (m, n, (0,)) with coefficient n
    dhat = koszul._columns(f, g, hat=True)
    col = dhat(((0,), (2,), ()))
    assert col[((0,), (2,), (0,))] == 2
    # vanishes when n = 0
    col0 = dhat(((1,), (0,), ()))
    assert ((1,), (0,), (0,)) not in col0


def test_dhat_squared_zero_on_quotient():
    # the quotient complex V/S_p: n-degree <= p-1 sources, targets of
    # n-degree >= p are zero
    pair = segment_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    p = 4
    dhat = koszul._columns(f, g, hat=True)

    def quotient_column(elt):
        return {key: v for key, v in dhat(elt).items()
                if dot(pair.deg, key[1]) < p}

    for gv in range(4):
        for elt in dhat_piece(pair, gv, p - 1):
            acc = {}
            for elt2, v in quotient_column(elt).items():
                for elt3, w in quotient_column(elt2).items():
                    acc[elt3] = acc.get(elt3, 0) + v * w
            assert not any(acc.values()), (gv, elt)


@pytest.mark.parametrize("swap", [False, True])
def test_dhat_squared_zero_exact_p2(swap):
    # the pruning in cohomology_dhat rests on the exact d_hat o d_hat = 0
    # on every piece it eliminates on P2 and its swap: gradings <= 6 at
    # n-degree <= 3; the segment pair, and its swap, as well
    for pair in (p2_pair(), segment_pair()):
        f = random_coefficients(pair, "f", seed=1)
        g = random_coefficients(pair, "g", seed=2)
        if swap:
            pair, f, g = pair.swap(), g, f
        dhat = koszul._columns(f, g, hat=True)
        for gv in range(7):
            for elt in dhat_piece(pair, gv, 3):
                acc = {}
                for elt2, v in dhat(elt).items():
                    for elt3, w in dhat(elt2).items():
                        acc[elt3] = acc.get(elt3, 0) + v * w
                assert not any(acc.values()), (gv, elt)


@pytest.mark.parametrize("build", [ray_pair, segment_pair, p2_pair,
                                   square_pair])
def test_cohomology_d_pruned_ranks_are_full_ranks(build):
    pair = build()
    basis = v_basis(pair, 6)
    for seed in (1, 3):
        f = random_coefficients(pair, "f", seed=seed)
        g = random_coefficients(pair, "g", seed=seed + 1)
        rep = cohomology_d(Context(pair, f, g), D=6)
        d = koszul._columns(f, g)
        full = {k: labelled_rank([d(e) for e in basis[k]]) for k in range(6)}
        assert rep.ranks == full, seed


@pytest.mark.parametrize("swap", [False, True])
def test_cohomology_dhat_pruned_ranks_are_full_ranks(swap, monkeypatch):
    pair = p2_pair()
    ctx = Context(pair, random_coefficients(pair, "f", seed=1),
                  random_coefficients(pair, "g", seed=2))
    if swap:
        ctx = ctx.swap()
    pair, f, g = ctx.pair, ctx.f, ctx.g
    D, p_max = 6, 8
    calls, active = [], []
    pivots_of = linalg.Complex.pivots

    def tracked(self, *key):
        active.append(key)
        try:
            return pivots_of(self, *key)
        finally:
            active.pop()

    def recording(rows):
        # the rows are numbered at the int core: the piece is the key of
        # the innermost Complex.pivots call
        pivots = exact_pivots(rows)
        calls.append((active[-1], len(pivots)))
        return pivots

    monkeypatch.setattr(linalg.Complex, "pivots", tracked)
    monkeypatch.setattr(linalg, "exact_pivots", recording)
    rep = cohomology_dhat(ctx, D=D, p_max=p_max)
    # exact_rank calls linalg.exact_pivots too: record no oracle call
    monkeypatch.undo()

    def basis(gv, cap):
        return dhat_piece(pair, gv, cap)

    full = {}
    dhat = koszul._columns(f, g, hat=True)

    def rank(gv, cap):
        if (gv, cap) not in full:
            full[(gv, cap)] = labelled_rank(
                [dhat(e) for e in basis(gv, cap)])
        return full[(gv, cap)]

    for gv in range(D + 1):
        stop = rep.window["stabilized_at"][gv]
        hs = [len(basis(gv, cap)) - rank(gv, cap)
              - (rank(gv - 1, cap - 1) if gv else 0)
              for cap in range(1, min(stop, p_max - 1) + 1)]
        stable = [i for i in range(1, len(hs)) if hs[i] == hs[i - 1]]
        assert stable == ([] if gv in rep.flags else [len(hs) - 1]), gv
        assert rep.dims[gv] == hs[-1]
        assert rep.ranks[gv] == rank(gv, stop - 1)
        assert rep.space_dims[gv] == len(basis(gv, stop - 1))
    # every piece eliminated, down each (gv - 1, cap - 1) chain of
    # dropped pivots to an empty piece, has its full rank
    todo, pieces = list(full), set()
    while todo:
        gv, cap = todo.pop()
        if (gv, cap) not in pieces and basis(gv, cap):
            pieces.add((gv, cap))
            todo.append((gv - 1, cap - 1))
    assert Counter(calls) == Counter((piece, rank(*piece))
                                     for piece in pieces)


def test_cohomology_dhat_r1_all_zero():
    pair = ray_pair()
    f = coeffs_const(pair, "f", 2)
    g = coeffs_const(pair, "g", 3)
    rep = cohomology_dhat(Context(pair, f, g), D=4, p_max=8)
    assert not rep.flags
    assert all(d == 0 for d in rep.dims.values())


def test_hb_assemble_p2():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    hb = hb_assemble(Context(pair, f, g))
    assert hb["total"] == {2: 1, 3: 2, 4: 1}
    # the zero-face summand lands at grading r
    zero_rec = next(r for r in hb["per_face"] if r["theta_dim"] == 0)
    assert list(zero_rec["dims"]) == [pair.rank]


def test_hb_total_matches_decomposition_total():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=3)
    g = random_coefficients(pair, "g", seed=4)
    hb = hb_assemble(Context(pair, f, g))
    deco = decomposition_dims(Context(pair, f, g))
    assert sum(hb["total"].values()) == sum(deco["total"].values())


def test_maingkz_p2():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    rep = cohomology_dhat(Context(pair, f, g), D=6, p_max=8)
    assert not rep.flags
    got = {gv: d for gv, d in rep.dims.items() if d}
    assert got == {2: 1, 3: 2, 4: 1}
    assert got == hb_assemble(Context(pair, f, g))["total"]


def test_maingkz_segment():
    pair = segment_pair()
    f = random_coefficients(pair, "f", seed=11)
    g = random_coefficients(pair, "g", seed=12)
    rep = cohomology_dhat(Context(pair, f, g), D=5, p_max=8)
    assert not rep.flags
    got = {gv: d for gv, d in rep.dims.items() if d}
    assert got == hb_assemble(Context(pair, f, g))["total"]


def test_index_two_cayley_pair_both_theorems():
    # rank-4 pair with deg . deg_dual = 2 (two (1,1)-divisors in P1xP1
    # cutting out two points): nothing in the machinery assumes index 1
    rays = [(a, b, 1, 0) for a in (0, 1) for b in (0, 1)] + \
           [(a, b, 0, 1) for a in (0, 1) for b in (0, 1)]
    pair = make_gorenstein_pair(cone_from_rays(rays))
    assert dot(pair.deg, pair.deg_dual) == 2
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    deco = decomposition_dims(Context(pair, f, g))
    assert deco["total"] == {2: 2}
    rep = cohomology_d(Context(pair, f, g), D=5)
    assert {k: v for k, v in rep.dims.items() if v} == {2: 2}
    hrep = cohomology_dhat(Context(pair, f, g), D=2 * pair.rank, p_max=8)
    assert not hrep.flags
    assert {k: v for k, v in hrep.dims.items() if v} == \
        hb_assemble(Context(pair, f, g))["total"] == {4: 2}


def test_ha_by_delegation():
    pair = p2_pair()
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    # H_A of (f, g) is H_B of the swapped pair, f and g exchanged
    arep = cohomology_dhat(Context(pair, f, g).swap(), D=2 * pair.rank)
    assert not arep.flags
    got = {k: v for k, v in arep.dims.items() if v}
    # for this pair the A side mirrors the B side
    assert got == hb_assemble(Context(pair.swap(), g, f))["total"] \
        == {2: 1, 3: 2, 4: 1}
    # and total dimension agrees with the B space
    brep = cohomology_dhat(Context(pair, f, g), D=2 * pair.rank, p_max=8)
    assert sum(got.values()) == sum(v for v in brep.dims.values() if v)


def test_index_two_empty_intersection_is_zero():
    # the unit square at height one has index 2 and an empty associated
    # intersection: both routes must agree on identically zero
    pair = make_gorenstein_pair(
        cone_over_polytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert dot(pair.deg, pair.deg_dual) == 2
    f = random_coefficients(pair, "f", seed=1)
    g = random_coefficients(pair, "g", seed=2)
    assert decomposition_dims(Context(pair, f, g))["total"] == {}
    rep = cohomology_d(Context(pair, f, g), D=5)
    assert all(v == 0 for v in rep.dims.values())
    hrep = cohomology_dhat(Context(pair, f, g), D=2 * pair.rank, p_max=8)
    assert not hrep.flags
    assert all(v == 0 for v in hrep.dims.values())
    assert hb_assemble(Context(pair, f, g))["total"] == {}
