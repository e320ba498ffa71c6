"""Exact sparse kernels: echelon, rank, kernels, integer lattice ops."""

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest

from stringykit.lattice import hnf_rows, integer_kernel
from stringykit.linalg import (Complex, Echelon, _add,
                               _clear_denominators, _combine, _cross,
                               _divide_content, exact_pivots, exact_rank,
                               kernel_basis)


def dense_rank(rows, ncols):
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_rows(rng):
    """(rows, ncols): up to 12 sparse rational rows of up to 12 columns."""
    nrows = rng.randint(1, 12)
    ncols = rng.randint(1, 12)
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.4:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v:
                    row[j] = v
        rows.append(row)
    return rows, ncols


def labelled_rank(rows):
    """exact_rank of sparse rows keyed by any sortable labels, numbered in
    sorted order."""
    number = {c: i for i, c in enumerate(sorted({c for r in rows
                                                 for c in r}))}
    return exact_rank([{number[c]: v for c, v in r.items()} for r in rows])


def test_exact_rank_random_against_dense():
    rng = Random(7)
    for trial in range(25):
        rows, ncols = random_rows(rng)
        assert exact_rank(rows) == dense_rank(rows, ncols)


def test_exact_pivots_random_against_dense():
    rng = Random(13)
    for trial in range(40):
        rows, ncols = random_rows(rng)
        # a dependent row, so that not every row yields a pivot
        rows.append({j: 2 * rows[0].get(j, 0) - rows[-1].get(j, 0)
                     for j in range(ncols)
                     if 2 * rows[0].get(j, 0) != rows[-1].get(j, 0)})
        pivots = exact_pivots(rows)
        rank = dense_rank(rows, ncols)
        assert len(set(pivots)) == len(pivots) == rank
        on_pivots = [{i: r[c] for i, c in enumerate(pivots) if c in r}
                     for r in rows]
        assert dense_rank(on_pivots, len(pivots)) == len(pivots)


def full_scan_pivots(rows):
    """exact_pivots on int rows with the pivot column found by a scan over
    every live column: the rule exact_pivots keeps with its count buckets."""
    mat = {}
    for r in rows:
        rr, = _divide_content([r])
        if rr:
            mat[len(mat)] = rr
    colrows = {}
    for i, r in mat.items():
        for c in r:
            colrows.setdefault(c, set()).add(i)
    pivots = []
    while mat:
        c = min(colrows, key=lambda cc: (len(colrows[cc]), cc))
        pi = min(colrows[c], key=lambda i: (len(mat[i]), i))
        prow = mat.pop(pi)
        pivots.append(c)
        for i in colrows[c] - {pi}:
            a, b = _cross(prow[c], mat[i][c])
            mat[i], = _divide_content([_combine(a, mat[i], b, prow)])
            if not mat[i]:
                del mat[i]
        colrows = {}
        for i, r in mat.items():
            for cc in r:
                colrows.setdefault(cc, set()).add(i)
    return pivots


def test_exact_pivots_buckets_keep_the_full_scan_rule():
    rng = Random(31)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        rows = [{j: v for j in range(ncols) if rng.random() < density
                 for v in (rng.randint(-3, 3),) if v}
                for _ in range(nrows)]
        assert exact_pivots(rows) == full_scan_pivots(rows), trial
        # columns with gaps, as a complex numbers the labels of a piece
        # (its basis positions, then the labels first seen): an
        # order-preserving renumbering moves the pivots with it
        lrng = Random(trial)
        labels = sorted(lrng.sample(range(-40, 4 * ncols), ncols))
        trows = [{labels[j]: v for j, v in r.items()} for r in rows]
        assert exact_pivots(trows) == full_scan_pivots(trows) == \
            [labels[j] for j in full_scan_pivots(rows)], trial
    # chains of columns held by one row (each pivot row frees the next
    # column), in front of a block that elimination must open up, with
    # Fraction entries and empty rows: the peel, the hand-over to
    # the elimination loop and that loop's own one-row columns all run
    for trial in range(60):
        ncols = rng.randint(4, 30)
        cols = rng.sample(range(ncols), ncols)
        rows = []
        for k in range(rng.randint(1, ncols // 2)):
            row = {cols[k]: rng.choice((1, -2, 3))}
            if rng.random() < 0.8:
                row[cols[k + 1]] = rng.randint(1, 4)
            rows.append(row)
        for _ in range(rng.randint(0, 25)):
            rows.append({j: Fraction(v, rng.randint(1, 4))
                         for j in range(ncols) if rng.random() < 0.3
                         for v in (rng.randint(-3, 3),) if v})
        rows += [{}, {0: 0}, {1: Fraction(0), 2: 0}][:rng.randint(0, 3)]
        rng.shuffle(rows)
        # exact_pivots takes rows with no zero entry: the zero rows come
        # in empty
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        # each row scaled to integers: its pivots are the same
        irows = [{j: v * lcm(*(Fraction(x).denominator for x in r.values()))
                  for j, v in r.items()} for r in rows]
        assert exact_pivots(rows) == full_scan_pivots(
            [{j: int(v) for j, v in r.items()} for r in irows]), trial


def random_complex(rng, ndims):
    """Dense differentials of a complex with the given dimensions: d[k] is
    the list of the n_k columns of d_k, each of length n_(k+1) (0 past
    the last).  A sum of copies of Q -> Q and Q on shuffled labels, in a
    basis then changed at random, so d_k d_(k-1) = 0 by construction."""
    order = [rng.sample(range(n), n) for n in ndims] + [[]]
    d = []
    rank_in = 0
    for k, n in enumerate(ndims):
        nxt = len(order[k + 1])
        r = min(n - rank_in, nxt, rng.randint(1, 3))
        cols = [[Fraction(0)] * nxt for _ in range(n)]
        for j in range(r):
            cols[order[k][rank_in + j]][order[k + 1][j]] = Fraction(1)
        d.append(cols)
        rank_in = r
    for k, n in enumerate(ndims):
        for _ in range(rng.randint(0, n)):
            # new basis vector x + a*y: a column step on d_k, a row step
            # on d_(k-1)
            x, y = rng.sample(range(n), 2)
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            d[k][x] = [u + a * v for u, v in zip(d[k][x], d[k][y])]
            for col in d[k - 1] if k else ():
                col[y] -= a * col[x]
    return d


def test_complex_against_dense():
    rng = Random(5)
    for trial in range(20):
        ndims = [rng.randint(2, 6) for _ in range(4)]
        d = random_complex(rng, ndims)
        sparse = [[{j: v for j, v in enumerate(col) if v} for col in dk]
                  for dk in d]
        for k in range(1, len(d)):
            for col in d[k - 1]:
                image = [sum(c * d[k][i][j] for i, c in enumerate(col))
                         for j in range(len(d[k][0]))]
                assert not any(image), (trial, k)
        cx = Complex(lambda k: [(k, i) for i in range(ndims[k])]
                     if 0 <= k < len(ndims) else [],
                     lambda e: {(e[0] + 1, j): v
                                for j, v in sparse[e[0]][e[1]].items()},
                     (1,))
        rank = [dense_rank(rows, len(dk[0])) for rows, dk in zip(sparse, d)]
        # the pieces before the first and after the last are empty
        assert rank[-1] == 0
        for k, n in enumerate(ndims):
            assert len(cx.pivots(k)) == rank[k], (trial, k)
            assert cx.dim(k) == (n - rank[k]) - (rank[k - 1] if k else 0)
        # the last piece left unenumerated: its labels are numbered as
        # the columns of the piece before first name them
        cut = Complex(lambda k: [(k, i) for i in range(ndims[k])]
                      if 0 <= k < 3 else [], cx._column, (1,))
        for k in range(3):
            assert len(cut.pivots(k)) == rank[k], (trial, k)
            assert cut.dim(k) == cx.dim(k), (trial, k)


def test_echelon_reduce_canonical():
    ech = Echelon()
    ech.insert({0: Fraction(2), 1: Fraction(4)})
    ech.insert({1: Fraction(1), 2: Fraction(1)})
    rem, _ = ech.reduce({0: Fraction(1), 1: Fraction(2)})
    assert rem == {}
    rem, _ = ech.reduce({2: Fraction(3)})
    assert rem == {2: Fraction(3)}
    # int entries: inverting a pivot must never produce a float
    ech = Echelon()
    ech.insert({0: 2, 1: 3}, {"a": 1})
    ech.insert({1: 7, 2: 5}, {"b": 2})
    scalars = [v for c in ech.pivot_columns()
               for vec in (ech.row(c), ech.shadow(c)) for v in vec.values()]
    assert all(isinstance(v, (int, Fraction)) for v in scalars)
    assert ech.basis_rows() == [{0: 1, 2: Fraction(-15, 14)},
                                {1: 1, 2: Fraction(5, 7)}]
    assert ech.row(0) == {0: 1, 2: Fraction(-15, 14)}
    assert ech.shadow(0) == {"a": Fraction(1, 2), "b": Fraction(-3, 7)}
    assert ech.shadow(1) == {"b": Fraction(2, 7)}


def test_echelon_rows_hold_only_their_own_pivot():
    rng = Random(11)
    for trial in range(20):
        ech = Echelon()
        for _ in range(rng.randint(1, 15)):
            vec = {}
            for j in range(12):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if v and rng.random() < 0.35:
                    vec[j] = v
            ech.insert(vec)
            pivots = ech.pivot_columns()
            for c in pivots:
                row = ech.row(c)
                assert row[c] == 1
                assert set(row) & set(pivots) == {c}


def test_echelon_shadow_tracks_combination():
    ech = Echelon()
    v0 = {0: Fraction(1), 1: Fraction(1)}
    v1 = {1: Fraction(1)}
    ech.insert(v0, {"a": Fraction(1)})
    ech.insert(v1, {"b": Fraction(1)})
    rem, sh = ech.reduce({0: Fraction(2), 1: Fraction(3)}, {})
    assert rem == {}
    # vec = 2*v0 + 1*v1, so the shadow catches -2a - 1b
    assert sh == {"a": Fraction(-2), "b": Fraction(-1)}


def _dense_rref(rows, ncols):
    """Reduced row echelon form over Fraction of dense rows, pivots taken
    among the first ncols columns only; returns {pivot: row}."""
    mat = [[Fraction(v) for v in r] for r in rows]
    out = {}
    for c in range(ncols):
        i = next((i for i, r in enumerate(mat) if r[c]), None)
        if i is None:
            continue
        piv = mat.pop(i)
        piv = [v / piv[c] for v in piv]
        mat = [[a - r[c] * b for a, b in zip(r, piv)] for r in mat]
        out = {c0: [a - r[c] * b for a, b in zip(r, piv)]
               for c0, r in out.items()}
        out[c] = piv
    return out


def _random_scalar(rng):
    v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v


def _canonical(values):
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


def test_echelon_against_dense_rref_oracle():
    """Seeded property: rows, shadows, basis, pivots and reductions of
    the echelon match a dense Fraction RREF of [vectors | shadows] over
    the accepted vectors, and every value read out is canonical."""
    rng = Random(23)
    for trial in range(40):
        ncols, nsh = rng.randint(1, 8), rng.randint(0, 4)
        keys = ["s%d" % k for k in range(nsh)]

        def sparse(width, density):
            return {j: v for j in range(width) if rng.random() < density
                    for v in [_random_scalar(rng)] if v}

        ech = Echelon()
        accepted = []      # dense [vec | shadow] rows that got a pivot
        for _ in range(rng.randint(1, 10)):
            vec = sparse(ncols, 0.5)
            shadow = ({keys[k]: v for k, v in sparse(nsh, 0.6).items()}
                      if rng.random() < 0.8 else None)
            dense = ([vec.get(j, 0) for j in range(ncols)]
                     + [(shadow or {}).get(k, 0) for k in keys])
            before = set(_dense_rref(accepted, ncols))
            grown = set(_dense_rref(accepted + [dense], ncols))
            got = ech.insert(vec, shadow)
            if grown == before:
                assert got is None
            else:
                assert {got} == grown - before
                accepted.append(dense)
        oracle = _dense_rref(accepted, ncols)
        pivots = sorted(oracle)
        assert ech.pivot_columns() == pivots
        assert ech.rank == len(pivots)
        for c in pivots:
            row, shadow = ech.row(c), ech.shadow(c)
            assert row == {j: v for j, v in enumerate(oracle[c][:ncols]) if v}
            assert shadow == {k: v for k, v in zip(keys, oracle[c][ncols:])
                              if v}
            assert _canonical(row.values()) and _canonical(shadow.values())
        assert ech.basis_rows() == [ech.row(c) for c in pivots]
        for _ in range(3):
            probe = sparse(ncols, 0.6)
            probe_sh = {keys[k]: v for k, v in sparse(nsh, 0.5).items()}
            rem, sh = ech.reduce(probe, probe_sh)
            expect = [Fraction(probe.get(j, 0)) for j in range(ncols)] + \
                [Fraction(probe_sh.get(k, 0)) for k in keys]
            for c in pivots:
                a = probe.get(c, 0)
                expect = [e - a * r for e, r in zip(expect, oracle[c])]
            assert rem == {j: v for j, v in enumerate(expect[:ncols]) if v}
            assert sh == {k: v for k, v in zip(keys, expect[ncols:]) if v}
            assert _canonical(rem.values()) and _canonical(sh.values())
            assert ech.reduce(probe) == (rem, None)


def two_echelon_kernel(vectors):
    """The kernel echelon by a second route: each vector is reduced with
    its index as shadow, an independent one inserted, and the shadow of a
    dependent one inserted into the kernel."""
    ech, kernel = Echelon(), Echelon()
    for i, v in enumerate(vectors):
        rem, sh = ech.reduce(v, {i: 1})
        if not rem:
            kernel.insert(sh)
        else:
            ech.insert(rem, sh)
    return kernel


def assert_kernel_is_the_oracle(vectors):
    got, want = kernel_basis(vectors), two_echelon_kernel(vectors)
    assert got._rows == want._rows
    assert got._shadows == want._shadows
    assert got.basis_rows() == want.basis_rows()
    for c, row in got._rows.items():
        # stored as a reduced echelon row: primitive, over int, positive
        # at its pivot, which is its smallest index
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1 and row[c] > 0 and min(row) == c
    for combo in got.basis_rows():
        acc = {}
        for i, c in combo.items():
            for j, x in vectors[i].items():
                acc[j] = acc.get(j, 0) + c * x
        assert not any(acc.values())


def general_clear_denominators(vecs):
    """_clear_denominators with every entry on the rational path."""
    den = 1
    for vec in vecs:
        for v in vec.values():
            den = lcm(den, v.denominator)
    return den, [{j: v.numerator * (den // v.denominator)
                  for j, v in vec.items() if v} for vec in vecs]


def general_combine(a, vec, b, row):
    """_combine with each entry added by ``_add``."""
    out = dict(vec) if a == 1 else {j: a * v for j, v in vec.items()}
    for j, v in row.items():
        _add(out, j, -b * v)
    return out


def _kernel_inputs(rng):
    """Rows of every kind the fast paths split on: all int, with
    Fractions, with Fraction(n, 1), with zero entries, empty."""
    yield {0: 3, 2: -5, 7: 1}
    yield {1: Fraction(1, 2), 3: Fraction(-2, 3), 4: 6}
    yield {0: Fraction(4), 1: 2, 5: Fraction(-9, 1)}
    yield {0: 0, 1: 5, 2: Fraction(0), 3: Fraction(3, 4)}
    yield {0: 0, 3: 0}
    yield {}
    for _ in range(200):
        kind = rng.randrange(4)
        vec = {}
        for j in range(rng.randint(0, 8)):
            v = rng.randint(-6, 6)
            if kind == 1:
                v = Fraction(v, rng.randint(1, 5))
            elif kind == 2:
                v = Fraction(v)
            elif kind == 3:
                v = _random_scalar(rng)
            vec[rng.randrange(10)] = v
        yield vec


def _types(vec):
    return {j: type(v) for j, v in vec.items()}


def test_clear_denominators_and_combine_match_the_general_path():
    rng = Random(53)
    vecs = list(_kernel_inputs(rng))
    for i, vec in enumerate(vecs):
        for pair in ((vec,), (vec, vecs[i - 1]), (vec, {}), ({}, vec)):
            den, got = _clear_denominators(pair)
            wden, want = general_clear_denominators(pair)
            assert den == wden and got == want
            assert all(type(v) is int for g in got for v in g.values())
            assert all(g is not p for g, p in zip(got, pair))
    cancelled = 0
    for i, vec in enumerate(vecs):
        other = vecs[(7 * i) % len(vecs)]
        for a, b, row in ((1, 1, other), (1, -2, other), (3, 5, other),
                          (-4, Fraction(1, 3), other),
                          # rows that cancel: a*vec == b*(a/b)*vec
                          (2, 1, {j: 2 * v for j, v in vec.items()}),
                          (1, 3, {j: v / 3 for j, v in vec.items()})):
            got, want = _combine(a, vec, b, row), general_combine(
                a, vec, b, row)
            assert got == want and _types(got) == _types(want)
            cancelled += not got and any(vec.values())
    assert cancelled > 100


def test_kernel_basis():
    # rows v0 + v1 = v2  -> one relation
    vs = [{0: Fraction(1)}, {1: Fraction(1)},
          {0: Fraction(1), 1: Fraction(1)}]
    combos = kernel_basis(vs).basis_rows()
    assert combos == [{0: 1, 1: 1, 2: -1}]
    assert_kernel_is_the_oracle(vs)
    assert kernel_basis([]).rank == 0
    rng = Random(41)
    for trial in range(150):
        ncols, width = rng.randint(1, 14), rng.randint(1, 10)
        vs = []
        for _ in range(ncols):
            kind = rng.random()
            if kind < 0.1 or not vs:
                # an empty column, or one whose entries are all zero
                vs.append({} if kind < 0.05 else {0: 0, width: Fraction(0)})
            elif kind < 0.35:
                # a combination of earlier columns
                vec = {}
                for v in rng.sample(vs, min(len(vs), 2)):
                    a = _random_scalar(rng) or 1
                    for j, x in v.items():
                        vec[j] = vec.get(j, 0) + a * x
                vs.append(vec)
            else:
                vs.append({j: _random_scalar(rng) for j in range(width)
                           if rng.random() < 0.4})
        assert_kernel_is_the_oracle(vs)


@pytest.mark.parametrize("poly", [[(1, 0), (0, 1), (-1, -1)],
                                  [(1, 0), (0, 1), (-1, 0), (0, -1)]],
                         ids=["p2", "square"])
def test_kernel_basis_on_the_sheaf_sections(monkeypatch, poly):
    """Every compatible-sections system of the fan's minimal sheaves at
    D = 4 gives the oracle's kernel echelon."""
    from stringykit import sheaves
    from stringykit.lattice import cone_over_polytope
    seen = []

    def checked(vectors):
        assert_kernel_is_the_oracle(vectors)
        seen.append(len(vectors))
        return kernel_basis(vectors)
    monkeypatch.setattr(sheaves, "kernel_basis", checked)
    fan = sheaves.FanSpace(cone_over_polytope(poly))
    for origin in fan.cells:
        sheaves.BigradedComplex(sheaves.MinimalSheaf(fan, origin, 4)) \
            .cohomology()
    assert len(seen) > 100 and max(seen) > 10


def test_sparse_basis_coords():
    basis = Echelon()
    for v in ({0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}):
        basis.insert(v)
    # a vector of the span reduces to zero; its coordinates in the
    # reduced basis are its entries at the pivot columns
    vec = {0: Fraction(3), 1: Fraction(7)}
    assert basis.reduce(vec)[0] == {}
    coords = [vec.get(c, 0) for c in basis.pivot_columns()]
    rebuilt = {}
    for c, row in zip(coords, basis.basis_rows()):
        for j, v in row.items():
            rebuilt[j] = rebuilt.get(j, 0) + c * v
    assert rebuilt == {0: Fraction(3), 1: Fraction(7)}
    assert basis.reduce({2: Fraction(1)})[0]


def test_rref_deterministic():
    vs = [{0: Fraction(2), 2: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    rows = []
    for order in (vs, list(reversed(vs))):
        ech = Echelon()
        for v in order:
            ech.insert(v)
        rows.append(ech.basis_rows())
    assert rows[0] == rows[1]


def test_integer_kernel_saturated():
    # kernel of (2, 4) in Z^2 is generated by (2, -1), not (4, -2)
    ker = integer_kernel([(2, 4)], 2)
    assert len(ker) == 1
    v = ker[0]
    assert abs(v[0] * 1 - 0) >= 0
    assert 2 * v[0] + 4 * v[1] == 0
    from math import gcd
    assert gcd(v[0], v[1]) == 1
    # the kernel comes back in Hermite form
    assert tuple(ker) == hnf_rows(ker)
    ker3 = integer_kernel([(1, 2, 3), (2, 4, 7)], 3)
    assert tuple(ker3) == hnf_rows(ker3) == ((2, -1, 0),)


def test_hnf_canonical():
    assert hnf_rows([(0, 1), (1, 0)]) == hnf_rows([(1, 0), (0, 1)])
    assert hnf_rows([(2, 0), (0, 1), (2, 1)]) == ((2, 0), (0, 1))

