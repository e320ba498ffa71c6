"""Minimal sheaves, global sections, the W-complex, vanishing verifiers."""

import pytest

from stringykit.errors import TruncationTooSmall
from stringykit.gpoly import g_polynomial
from stringykit.jacobian import Context
from stringykit.lattice import (cone_from_rays, cone_over_polytope, dot,
                                points_at_degree, make_gorenstein_pair)
from stringykit.linalg import Echelon, vec_add
from stringykit.sheaves import (BigradedComplex, Cell, FanSpace,
                                MinimalSheaf, annihilator_face,
                                verify_prop_maincoro, verify_theorem_key)
from test_linalg import labelled_rank

SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P2 = [(1, 0), (0, 1), (-1, -1)]


def ray_fan():
    return FanSpace(cone_from_rays([(1,)]))


def quadrant_fan():
    return FanSpace(cone_from_rays([(1, 0), (0, 1)]))


def test_fan_cells_quadrant():
    fan = quadrant_fan()
    # pairs (theta, sigma) with sigma inside theta*: 4+2+2+1
    assert len(fan.cells) == 9
    assert len(fan.maximal) == 4


def test_fan_cells_ray():
    fan = ray_fan()
    assert len(fan.cells) == 3
    assert len(fan.maximal) == 2


def meet(fan, c1, c2):
    """The fan's cell on the meets of the two sides: the faces on the
    rays the two have in common."""
    return fan.cell(*(poset.by_rays[tuple(sorted(set(f1.rays) & set(f2.rays)))]
                      for poset, f1, f2 in ((fan.poset, c1.theta, c2.theta),
                                            (fan.dual_poset, c1.sigma,
                                             c2.sigma))))


def test_fan_cells_are_canonical():
    for fan in (quadrant_fan(), FanSpace(cone_over_polytope(SQUARE)),
                FanSpace(cone_over_polytope(P2))):
        cells = set(fan.cells)
        assert fan.zero_cell() is fan.cells[0]
        for c in fan.cells:
            assert fan.cell(c.theta, c.sigma) is c
            for f in fan.facets[c]:
                assert f in cells
                assert f.dim == c.dim - 1
                assert fan.leq(f, c)
            for c2 in fan.cells:
                assert meet(fan, c, c2) in cells


def test_minimal_sheaf_rejects_non_cell_origin():
    fan = quadrant_fan()
    top = fan.poset.top
    ray = next(s for s in fan.dual_poset if s.dim == 1)
    with pytest.raises(ValueError):
        fan.cell(top, ray)
    # a hand-built pair is no cell of the fan, and no sheaf starts there
    with pytest.raises(ValueError):
        MinimalSheaf(fan, Cell(top, ray), 3)


def test_minimal_sheaf_simplicial_rank_one_free():
    fan = quadrant_fan()
    sheaf = MinimalSheaf(fan, fan.zero_cell(), 4)
    for cell in sheaf.support:
        assert sheaf.gens.get(cell, ()) == ((0, 0),)


def expected_generator_bidegrees(fan, cell):
    """Product of the two g-polynomials of the intervals below the
    cell's faces: the Bressler-Lunts/IH prediction for gen degrees."""
    gx = g_polynomial(fan.poset, fan.poset.zero, cell.theta)
    gy = g_polynomial(fan.dual_poset, fan.dual_poset.zero, cell.sigma)
    out = {}
    for p, cp in gx.items():
        for q, cq in gy.items():
            out[(p, q)] = out.get((p, q), 0) + cp * cq
    return out


def test_generator_degrees_match_g_polynomials():
    # cross-module oracle: gen bidegrees over each cell = product of the
    # g-polynomial coefficients of the two face intervals
    for verts in (P2, SQUARE):
        fan = FanSpace(cone_over_polytope(verts))
        sheaf = MinimalSheaf(fan, fan.zero_cell(), 5)
        for cell in sheaf.support:
            got = {}
            for pq in sheaf.gens.get(cell, ()):
                got[pq] = got.get(pq, 0) + 1
            assert got == expected_generator_bidegrees(fan, cell), cell


@pytest.mark.parametrize("poly", [SQUARE, P2], ids=["square", "p2"])
def test_basis_at_is_in_sorted_order(poly):
    """The loops of basis_at produce (generator, u, v) order unsorted."""
    fan = FanSpace(cone_over_polytope(poly))
    D = 4
    for origin in fan.cells:
        sheaf = MinimalSheaf(fan, origin, D)
        for cell in sheaf.support:
            for s in range(D + 1):
                for a in range(s + 1):
                    basis, index = sheaf.basis_at(cell, a, s - a)
                    assert basis == tuple(sorted(
                        basis, key=lambda e: (e[2], e[0], e[1])))
                    assert index == {e: i for i, e in enumerate(basis)}


def test_w_dims_r1_hand_values():
    fan = ray_fan()
    w = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 5))
    assert w.dim(0, 0) == 1
    for a in range(1, 5):
        assert w.dim(a, 0) == 1
        assert w.dim(0, a) == 1
    for a in range(1, 4):
        for b in range(1, 4):
            assert w.dim(a, b) == 0
    # W vanishes in bidegree (1, 1), so a nonzero vector lies outside it
    assert w.space(1, 1)[1].reduce({0: 1})[0]


def test_w_dims_quadrant_monomial_count():
    # independent oracle: pairs (m, n) in K x K_dual with <m, n> = 0
    pair = make_gorenstein_pair(cone_from_rays([(1, 0), (0, 1)]))
    fan = FanSpace(pair.cone)
    w = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 5))
    topK = pair.poset().top
    topD = pair.dual_poset().top
    for a in range(5):
        for b in range(5 - a):
            count = 0
            for m in points_at_degree(topK, a, pair.deg_dual):
                for n in points_at_degree(topD, b, pair.deg):
                    if dot(m, n) == 0:
                        count += 1
            assert w.dim(a, b) == count, (a, b)


def test_w_degree_zero_always_one():
    for build in (ray_fan, quadrant_fan,
                  lambda: FanSpace(cone_over_polytope(P2))):
        fan = build()
        w = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 3))
        assert w.dim(0, 0) == 1


def test_flabbiness_restrictions_surjective():
    fan = FanSpace(cone_over_polytope(SQUARE))
    sheaf = MinimalSheaf(fan, fan.zero_cell(), 4)
    from stringykit.linalg import exact_rank
    for cell in sheaf.support:
        if cell.key() == fan.zero_cell().key():
            continue
        for a in range(4):
            for b in range(4 - a):
                facets, layout, gamma = sheaf.gamma_boundary(cell, a, b)
                if not gamma:
                    continue
                # boundary restriction of L(cell) spans Gamma(boundary)
                cols = []
                basis, _ = sheaf.basis_at(cell, a, b)
                for i in range(len(basis)):
                    amb = {}
                    for f, off, d in layout:
                        col = sheaf.restr_cols(cell, f, a, b)[i]
                        for t, v in col.items():
                            amb[off + t] = v
                    cols.append(amb)
                assert exact_rank(cols) == len(gamma), (cell, a, b)


def test_dd_zero_and_grading_shift():
    fan = FanSpace(cone_over_polytope(P2))
    cx = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 4))
    # d o d = 0 on all stored blocks
    for s in range(3):
        for gr in cx.gr_values(s):
            cols = list(map(cx.d_column, cx.block_basis(gr, s)))
            nxt = list(map(cx.d_column, cx.block_basis(gr, s + 1)))
            labels = cx.block_basis(gr, s + 1)
            index = {lab: i for i, lab in enumerate(labels)}
            for col in cols:
                acc = {}
                for lab, v in col.items():
                    for lab2, w2 in nxt[index[lab]].items():
                        acc[lab2] = acc.get(lab2, 0) + v * w2
                assert not any(acc.values())
    # d raises deg_x + deg_y by one and preserves gr: structural in the
    # block layout; check the labels directly
    for s in range(3):
        for gr in cx.gr_values(s):
            for lab in cx.block_basis(gr, s):
                a, b, S, t = lab
                for (a2, b2, S2, t2) in cx.d_column(lab):
                    assert a2 + b2 == a + b + 1
                    assert a2 - b2 + len(S2) == a - b + len(S)


def oracle_mul_linear(sheaf, cell, side, coeffs, vec, a, b):
    """Multiplication by a linear function, each product found alone."""
    basis_src = sheaf.basis_at(cell, a, b)[0]
    index_dst = sheaf.basis_at(cell, a + 1 - side, b + side)[1]
    out = {}
    for j, c in coeffs:
        for i, val in vec.items():
            um, vm, gi = basis_src[i]
            if side == 0:
                um = um[:j] + (um[j] + 1,) + um[j + 1:]
            else:
                vm = vm[:j] + (vm[j] + 1,) + vm[j + 1:]
            key = index_dst[(um, vm, gi)]
            out[key] = out.get(key, 0) + c * val
    return {k: v for k, v in out.items() if v}


def oracle_action(cx, side, i, a, b):
    """Dense coordinate rows of the i-th function of a side on W_(a, b):
    each basis row of W multiplied cell by cell."""
    layout, ech = cx.space(a, b)
    tgt_layout, tgt = cx.space(a + 1 - side, b + side)
    rows = []
    for row in ech.basis_rows():
        out = {}
        for (c, off, d), (_, off2, _) in zip(layout, tgt_layout):
            comp = {k - off: v for k, v in row.items() if off <= k < off + d}
            sb = (c.theta, c.sigma)[side].span_basis
            coeffs = [(k, bv[i]) for k, bv in enumerate(sb) if bv[i]]
            for t, v in oracle_mul_linear(cx.sheaf, c, side, coeffs, comp,
                                          a, b).items():
                out[off2 + t] = v
        # out lies in W: it reduces to zero, and its coordinates are its
        # entries at the pivot columns
        assert not tgt.reduce(out)[0]
        rows.append([out.get(c, 0) for c in tgt.pivot_columns()])
    return rows


def oracle_d_column(cx, action, label):
    """d of one label: per i, contraction by m_i with the side-0 action,
    then wedge with n_i with the side-1 action, from dense rows."""
    a, b, S, t = label
    col = {}
    for i in range(cx.r):
        terms = []
        if i in S:
            pos = S.index(i)
            terms.append((0, (-1) ** pos, S[:pos] + S[pos + 1:]))
        else:
            terms.append((1, (-1) ** sum(1 for j in S if j < i),
                          tuple(sorted(S + (i,)))))
        for side, sign, S2 in terms:
            for t2, v in enumerate(action(side, i, a, b)[t]):
                if v:
                    key = (a + 1 - side, b + side, S2, t2)
                    col[key] = col.get(key, 0) + sign * v
    return {k: v for k, v in col.items() if v}


@pytest.mark.parametrize("poly", [SQUARE, P2], ids=["square", "p2"])
def test_columns_and_actions_match_the_per_row_oracle(poly):
    fan = FanSpace(cone_over_polytope(poly))
    D = 4
    checked = 0
    for origin in fan.cells:
        cx = BigradedComplex(MinimalSheaf(fan, origin, D))
        sheaf = cx.sheaf
        for cell in sheaf.support:
            for side, face in enumerate((cell.theta, cell.sigma)):
                coeffs = [(j, j + 2) for j in range(face.dim)]
                for a in range(D):
                    for b in range(D - a):
                        dim = sheaf.dim_at(cell, a, b)
                        vec = {k: k - 3 for k in range(dim) if k != 3}
                        assert sheaf.mul_linear(cell, side, coeffs, vec,
                                                a, b) == oracle_mul_linear(
                            sheaf, cell, side, coeffs, vec, a, b)
        dense = {}

        def action(side, i, a, b):
            key = (side, i, a, b)
            if key not in dense:
                dense[key] = oracle_action(cx, side, i, a, b)
                assert cx._action_table(a, b)[side][i] == [
                    [(t2, v) for t2, v in enumerate(row) if v]
                    for row in dense[key]], (origin, key)
            return dense[key]
        for s in range(D):
            for gr in cx.gr_values(s):
                for label in cx.block_basis(gr, s):
                    want = oracle_d_column(cx, action, label)
                    got = cx.d_column(label)
                    assert got == want, (origin, label)
                    assert {k: type(v) for k, v in got.items()} == \
                        {k: type(v) for k, v in want.items()}
                    checked += 1
    assert checked > 1000


def oracle_restr_to_facet(sheaf, cell, facet, a, b):
    """Restriction columns to a facet from scratch: each monomial's
    variables applied to its generator's lift one at a time, the u's and
    then the v's, by index."""
    urestr, vrestr = sheaf.fan.restriction[(cell, facet)]
    cols = []
    for um, vm, gi in sheaf.basis_at(cell, a, b)[0]:
        ca, cb = sheaf.gens[cell][gi]
        vec = dict(sheaf.lifts[cell][gi].get(facet, {}))
        for side, m, restr in ((0, um, urestr), (1, vm, vrestr)):
            for j, e in enumerate(m):
                for _ in range(e):
                    vec = sheaf.mul_linear(facet, side, restr[j], vec, ca, cb)
                    ca, cb = ca + 1 - side, cb + side
        cols.append(vec)
    return cols


def _types(cols):
    return [{k: type(v) for k, v in col.items()} for col in cols]


@pytest.mark.parametrize("poly", [SQUARE, P2], ids=["square", "p2"])
def test_restrictions_match_the_from_scratch_oracle(poly):
    fan = FanSpace(cone_over_polytope(poly))
    D = 4
    checked = raised = 0
    for origin in fan.cells:
        sheaf = MinimalSheaf(fan, origin, D)
        for cell in sheaf.support:
            for facet in fan.facets[cell]:
                if facet not in sheaf.support:
                    continue
                for a in range(D + 1):
                    for b in range(D + 1 - a):
                        got = sheaf._restr_to_facet(cell, facet, a, b)
                        want = oracle_restr_to_facet(sheaf, cell, facet,
                                                     a, b)
                        assert got == want, (origin, cell, facet, a, b)
                        assert _types(got) == _types(want)
                        checked += len(got)
                        raised += sum(1 for c in got
                                      if (a, b) != (0, 0) and c)
    assert checked > 1000 and raised > 500


def oracle_restr(sheaf, cell, face, a, b):
    """Restriction columns from a cell to any cell below it: the identity
    at the cell itself, zero outside the support, else through a support
    facet above the face, one facet at a time."""
    n = sheaf.dim_at(cell, a, b)
    if face is cell:
        return [{i: 1} for i in range(n)]
    if face not in sheaf.support:
        return [{} for _ in range(n)]
    mid = next(f for f in sheaf.fan.facets[cell]
               if f in sheaf.support and sheaf.fan.leq(face, f))
    second = oracle_restr(sheaf, mid, face, a, b)
    cols = []
    for col in sheaf.restr_cols(cell, mid, a, b):
        acc = {}
        for l, v in col.items():
            for t, w in second[l].items():
                acc[t] = acc.get(t, 0) + v * w
        cols.append({t: v for t, v in acc.items() if v})
    return cols


def all_pairs_agreement(sheaf, cells, a, b):
    """The agreement columns of every pair of the cells on their meet."""
    layout, total = sheaf.section_layout(cells, a, b)
    columns = [{} for _ in range(total)]
    rowkey = 0
    for i, (c1, off1, _) in enumerate(layout):
        for c2, off2, _ in layout[i + 1:]:
            m = meet(sheaf.fan, c1, c2)
            for c, off, sign in ((c1, off1, 1), (c2, off2, -1)):
                for l, col in enumerate(oracle_restr(sheaf, c, m, a, b)):
                    for t, v in col.items():
                        columns[off + l][rowkey + t] = sign * v
            rowkey += sheaf.dim_at(m, a, b)
    return layout, columns


WALL_CONES = {
    "ray": cone_from_rays([(1,)]),
    "segment": cone_over_polytope([(-1,), (1,)]),
    "p2": cone_over_polytope(P2),
    "square": cone_over_polytope(SQUARE),
    "polar_p2": cone_over_polytope([(-1, -1), (2, -1), (-1, 2)]),
    "polar_square": cone_over_polytope([(-1, -1), (1, -1), (1, 1),
                                        (-1, 1)]),
}


@pytest.mark.parametrize("name", sorted(WALL_CONES))
def test_walls_give_the_all_pairs_sections(name):
    """Agreement across walls has the kernel of agreement on every pair's
    meet, for the boundary of every cell and for the maximal cells, at
    every origin and every bidegree a + b <= D; every facet of a maximal
    cell, and every ridge of a cell, is a wall of exactly two."""
    from stringykit.linalg import kernel_basis
    fan = FanSpace(WALL_CONES[name])
    D = 4
    for cells in [fan.maximal] + [fan.facets[c] for c in fan.cells]:
        held = {}
        for c in cells:
            for wall in fan.facets[c]:
                held[wall] = held.get(wall, 0) + 1
        assert set(held.values()) <= {2}, cells
    checked = 0
    for origin in fan.cells:
        sheaf = MinimalSheaf(fan, origin, D)
        lists = [[f for f in fan.facets[c] if f in sheaf.support]
                 for c in fan.cells if c in sheaf.support]
        lists.append([c for c in fan.maximal if c in sheaf.support])
        for cells in lists:
            for s in range(D + 1):
                for a in range(s + 1):
                    layout, walls = sheaf.agreement(cells, a, s - a)
                    want_layout, pairs = all_pairs_agreement(
                        sheaf, cells, a, s - a)
                    assert layout == want_layout
                    assert kernel_basis(walls).basis_rows() == \
                        kernel_basis(pairs).basis_rows(), \
                        (origin, cells, a, s - a)
                    checked += bool(walls)
    assert checked > 20


def test_agreement_rejects_a_wall_of_three_cells():
    fan = FanSpace(cone_over_polytope(P2))
    sheaf = MinimalSheaf(fan, fan.zero_cell(), 2)
    # the zero cell is a facet of each of the six rays
    with pytest.raises(ValueError):
        sheaf.agreement([c for c in fan.cells if c.dim == 1], 0, 0)


class FullInsertSheaf(MinimalSheaf):
    """The build that inserts every image and every gamma vector."""

    def _build(self):
        for cell in self.fan.cells:
            if cell not in self.support:
                continue
            if cell is self.origin:
                self.gens[cell] = ((0, 0),)
                self.lifts[cell] = [{}]
                continue
            gens, lifts = [], []
            for s in range(self.D + 1):
                for a in range(s + 1):
                    _, layout, gamma = self.gamma_boundary(cell, a, s - a)
                    if not gamma:
                        continue
                    ech = Echelon()
                    for out in self._positive_images(cell, layout, a, s - a):
                        ech.insert(out)
                    for vec in gamma:
                        piv = ech.insert(dict(vec))
                        if piv is not None:
                            gens.append((a, s - a))
                            lifts.append(self._split(layout, ech.row(piv)))
            self.gens[cell] = tuple(gens)
            self.lifts[cell] = lifts
            self._gamma_cache.clear()


@pytest.mark.parametrize("poly", [SQUARE, P2], ids=["square", "p2"])
def test_build_early_stop_keeps_generators_and_lifts(monkeypatch, poly):
    fan = FanSpace(cone_over_polytope(poly))
    inserts = []
    real = Echelon.insert

    def counted(self, vec, shadow=None):
        inserts[-1] += 1
        return real(self, vec, shadow)
    monkeypatch.setattr(Echelon, "insert", counted)
    for origin in fan.cells:
        sheaves = []
        for cls in (MinimalSheaf, FullInsertSheaf):
            inserts.append(0)
            sheaves.append(cls(fan, origin, 4))
        got, want = sheaves
        assert set(got.gens) == set(want.gens) == got.support
        for cell in got.support:
            assert got.gens[cell] == want.gens[cell], (origin, cell)
            assert got.lifts[cell] == want.lifts[cell], (origin, cell)
            assert [{f: _types([v]) for f, v in lift.items()}
                    for lift in got.lifts[cell]] == \
                [{f: _types([v]) for f, v in lift.items()}
                 for lift in want.lifts[cell]]
    early, full = sum(inserts[0::2]), sum(inserts[1::2])
    assert early < full


def test_action_rejects_an_image_outside_w(monkeypatch):
    fan = FanSpace(cone_over_polytope(P2))
    cx = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 4))
    a, b = 1, 1
    assert cx.dim(a, b)
    cx.space(a + 1, b)
    columns = cx._constraints[(a + 1, b)]
    # the unit vector at k breaks an agreement constraint
    k = next(k for k, col in enumerate(columns) if col)
    real = MinimalSheaf.act

    def act(self, *args):
        apply = real(self, *args)
        return lambda vec: vec_add(apply(vec), {k: 1})
    monkeypatch.setattr(MinimalSheaf, "act", act)
    with pytest.raises(ValueError):
        cx._action_table(a, b)


def test_actions_reduce_no_vector(monkeypatch):
    fan = FanSpace(cone_over_polytope(P2))
    D = 5
    cx = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), D))
    for s in range(D + 1):
        for a in range(s + 1):
            cx.space(a, s - a)
    calls = []
    real = Echelon._reduce

    def counted(self, vec, shadow):
        calls.append(1)
        return real(self, vec, shadow)
    monkeypatch.setattr(Echelon, "_reduce", counted)
    rows = 0
    for s in range(D):
        for a in range(s + 1):
            for side in (0, 1):
                for i in range(cx.r):
                    rows += len(cx._action_table(a, s - a)[side][i])
    assert rows > 100 and not calls


@pytest.mark.parametrize("poly", [SQUARE, P2], ids=["square", "p2"])
def test_block_pivots_keep_the_full_rank(poly):
    fan = FanSpace(cone_over_polytope(poly))
    for origin in fan.cells:
        cx = BigradedComplex(MinimalSheaf(fan, origin, 5))
        engine = cx.engine()
        for s in range(5):
            for gr in cx.gr_values(s):
                cols = list(map(cx.d_column, cx.block_basis(gr, s)))
                assert len(engine.pivots(gr, s)) == labelled_rank(cols), \
                    (origin, gr, s)


def test_r1_ray_cohomology_vanishes():
    fan = ray_fan()
    h = BigradedComplex(MinimalSheaf(fan, fan.zero_cell(), 6)).cohomology()
    assert all(d == 0 for d in h.values())


def test_theorem_key_quadrant():
    report = verify_theorem_key(Context(), cone_from_rays([(1, 0), (0, 1)]),
                                D=6)
    assert report["verdict"] == "pass"
    assert report["violations"] == []


def test_theorem_key_simplicial_r3():
    cone = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert verify_theorem_key(Context(), cone, D=5)["verdict"] == "pass"


def test_theorem_key_square_cone():
    cone = cone_over_polytope(SQUARE)
    assert verify_theorem_key(Context(), cone, D=5)["verdict"] == "pass"


def test_theorem_key_rejects_empty_window():
    with pytest.raises(TruncationTooSmall):
        verify_theorem_key(Context(), cone_from_rays([(1, 0), (0, 1)]),
                           D=0)


def test_theorem_key_every_rank_one_to_four():
    # ranks 1..4, simplicial and not; the cube cone carries a sheaf with
    # generators in positive degree (g = 1 + 4t), a real rank-4 stress
    cases = [
        (cone_from_rays([(1,)]), 6),
        (cone_from_rays([(1, 0), (1, 2)]), 5),
        (cone_over_polytope(P2), 5),
        (cone_from_rays([(1, 0, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1)]), 4),
        (cone_over_polytope([(x, y, z) for x in (0, 1) for y in (0, 1)
                             for z in (0, 1)]), 3),
    ]
    for cone, D in cases:
        assert verify_theorem_key(Context(), cone, D)["verdict"] == "pass"


def test_prop_maincoro_rejects_non_cell_origin():
    # 16 face pairs of the quadrant, 9 of them cells
    fan = quadrant_fan()
    rejected = 0
    for theta0 in fan.poset:
        tstar = annihilator_face(theta0, fan.dual_poset)
        for sigma0 in fan.dual_poset:
            if fan.dual_poset.leq(sigma0, tstar):
                continue
            with pytest.raises(ValueError):
                verify_prop_maincoro(Context(), fan, theta0, sigma0, D=3)
            rejected += 1
    assert rejected == 7


def test_prop_maincoro_quadrant_all_origins():
    cone = cone_from_rays([(1, 0), (0, 1)])
    fan = FanSpace(cone)
    for theta0 in fan.poset:
        tstar = annihilator_face(theta0, fan.dual_poset)
        for sigma0 in fan.dual_poset:
            if not fan.dual_poset.leq(sigma0, tstar):
                continue
            report = verify_prop_maincoro(Context(), fan, theta0, sigma0,
                                          D=5)
            assert report["verdict"] == "pass", (theta0, sigma0, report)
            if sigma0.key() == tstar.key():
                assert report["computed_lambda_degree"] == tstar.dim
