"""Exact sparse kernels: echelon, rank, kernels, integer lattice ops."""

from fractions import Fraction
from random import Random

from stringykit.lattice import hnf_rows, integer_kernel
from stringykit.linalg import (Echelon, SparseBasis, exact_rank,
                               kernel_basis, rref_basis)


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


def test_exact_rank_random_against_dense():
    rng = Random(7)
    for trial in range(25):
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
        assert exact_rank(rows) == dense_rank(rows, ncols)


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
    scalars = [v for store in (ech.rows, ech.shadows)
               for vec in store.values() for v in vec.values()]
    assert all(isinstance(v, (int, Fraction)) for v in scalars)
    assert ech.rows == {0: {0: 1, 2: Fraction(-15, 14)},
                        1: {1: 1, 2: Fraction(5, 7)}}
    assert ech.shadows == {0: {"a": Fraction(1, 2), "b": Fraction(-3, 7)},
                           1: {"b": Fraction(2, 7)}}


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
            for c, row in ech.rows.items():
                assert row[c] == 1
                assert set(row) & set(ech.rows) == {c}


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


def test_kernel_basis():
    # rows v0 + v1 = v2  -> one relation
    vs = [{0: Fraction(1)}, {1: Fraction(1)},
          {0: Fraction(1), 1: Fraction(1)}]
    combos = kernel_basis(vs)
    assert len(combos) == 1
    c = combos[0]
    acc = {}
    for i, v in enumerate(vs):
        for j, x in v.items():
            acc[j] = acc.get(j, 0) + c.get(i, 0) * x
    assert not any(acc.values())


def test_sparse_basis_coords():
    basis = SparseBasis([{0: Fraction(1), 1: Fraction(1)},
                         {1: Fraction(2)}])
    coords = basis.coords({0: Fraction(3), 1: Fraction(7)})
    rebuilt = {}
    for c, row in zip(coords, basis.rows):
        for j, v in row.items():
            rebuilt[j] = rebuilt.get(j, 0) + c * v
    assert rebuilt == {0: Fraction(3), 1: Fraction(7)}


def test_rref_deterministic():
    vs = [{0: Fraction(2), 2: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    assert rref_basis(vs) == rref_basis(list(reversed(vs)))


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

