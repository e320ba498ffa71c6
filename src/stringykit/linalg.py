"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping column index to a nonzero rational: an ``int``
when it is integral, a ``Fraction`` otherwise (``rational`` converts).
Two engines:

* ``exact_rank`` -- fraction-free integer elimination with a cheap
  Markowitz-style pivot rule; the hot path for the big Koszul rank jobs.
* ``Echelon`` -- an insertion echelon in reduced form with pivots
  normalized to one.  Deterministic (smallest column wins), so every
  basis derived from it is canonical.  A pivot of 1 keeps the row as it
  is and a pivot of -1 negates it, so int rows stay int; any other pivot
  x scales by ``Fraction(1) / x`` (``1 / x`` of an int is a float).
  Supports a parallel "shadow" vector, which gives kernel tracking,
  coordinate extraction and the derivative bookkeeping of the hat-module
  connection.
"""

from collections import defaultdict
from fractions import Fraction
from math import gcd


def rational(v):
    """v as an exact rational: an int when integral, else a Fraction."""
    if isinstance(v, int):
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def vec_add(a, b, coeff=1):
    """a + coeff*b as sparse dicts, dropping zeros."""
    out = dict(a)
    for j, v in b.items():
        nv = out.get(j, 0) + coeff * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


class Echelon:
    """Reduced row echelon basis that grows by insertion.

    Rows are normalized to leading coefficient one and fully
    back-substituted, so ``reduce`` returns the canonical representative
    of a coset and the coordinates of a vector of the span are its
    entries at the pivot columns.
    """

    def __init__(self):
        self.rows = {}      # pivot col -> row dict, row[pivot] == 1
        self.shadows = {}   # pivot col -> shadow dict (parallel bookkeeping)

    def __len__(self):
        return len(self.rows)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, shadow=None):
        """Eliminate all pivot columns from vec; returns (rem, rem_shadow).

        A row holds no pivot column but its own, so subtracting it leaves
        every other pivot entry of vec as it was."""
        rem = dict(vec)
        sh = dict(shadow) if shadow is not None else None
        for c, coef in vec.items():
            row = self.rows.get(c)
            if row is None:
                continue
            for j, v in row.items():
                nv = rem.get(j, 0) - coef * v
                if nv:
                    rem[j] = nv
                else:
                    rem.pop(j, None)
            if sh is not None:
                srow = self.shadows.get(c)
                if srow:
                    for j, v in srow.items():
                        nv = sh.get(j, 0) - coef * v
                        if nv:
                            sh[j] = nv
                        else:
                            sh.pop(j, None)
        return rem, sh

    def insert(self, vec, shadow=None):
        """Insert a vector; returns the new pivot column or None if dependent.

        Pivot choice: the smallest column of the remainder.
        """
        rem, sh = self.reduce(vec, shadow)
        if not rem:
            return None
        c = min(rem)
        x = rem[c]
        if sh is None:
            sh = {}
        if x == 1:
            row, srow = rem, sh
        elif x == -1:
            row = {j: -v for j, v in rem.items()}
            srow = {j: -v for j, v in sh.items()}
        else:
            inv = Fraction(1) / x   # 1 / int would be a float
            row = {j: inv * v for j, v in rem.items()}
            srow = {j: inv * v for j, v in sh.items()}
        # back-substitute to keep the basis reduced
        for c0, row0 in self.rows.items():
            coef = row0.get(c)
            if coef:
                for j, v in row.items():
                    nv = row0.get(j, 0) - coef * v
                    if nv:
                        row0[j] = nv
                    else:
                        row0.pop(j, None)
                srow0 = self.shadows.get(c0)
                if srow0 or srow:
                    if srow0 is None:
                        srow0 = {}
                    for j, v in srow.items():
                        nv = srow0.get(j, 0) - coef * v
                        if nv:
                            srow0[j] = nv
                        else:
                            srow0.pop(j, None)
                    self.shadows[c0] = srow0
        self.rows[c] = row
        self.shadows[c] = srow
        return c

    def contains(self, vec):
        rem, _ = self.reduce(vec)
        return not rem

    def basis_rows(self):
        """Canonical RREF rows, sorted by pivot column, with integral
        entries as int."""
        return [{j: rational(v) for j, v in self.rows[c].items()}
                for c in sorted(self.rows)]

    def pivot_columns(self):
        return sorted(self.rows)


def rref_basis(vectors):
    """Canonical reduced-echelon basis of the span of the given vectors."""
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.basis_rows()


def kernel_basis(vectors):
    """Kernel of the matrix whose ROWS are the given vectors' coordinates
    in terms of the vector list: returns combos c with sum_i c[i]*v_i = 0.

    Tracking shadows carry the combination; output is canonicalized to a
    reduced echelon basis over the combination coordinates.
    """
    ech = Echelon()
    combos = []
    for i, v in enumerate(vectors):
        rem, sh = ech.reduce(v, {i: 1})
        if not rem:
            combos.append(sh)
        else:
            ech.insert(v, {i: 1})
    return rref_basis(combos)


class SparseBasis:
    """A canonical RREF basis of a subspace with coordinate extraction."""

    def __init__(self, vectors=()):
        self._ech = Echelon()
        for v in vectors:
            self._ech.insert(v)
        self.rows = self._ech.basis_rows()
        self.pivots = self._ech.pivot_columns()

    def __len__(self):
        return len(self.rows)

    def coords(self, vec):
        """Coordinates of vec in this basis; raises if vec not in span."""
        out = [vec.get(p, 0) for p in self.pivots]
        rem, _ = self._ech.reduce(vec)
        if rem:
            raise ValueError("vector not in span")
        return out

    def contains(self, vec):
        return self._ech.contains(vec)


def _int_row(row):
    """Clear denominators and divide by content; returns an int dict."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    out = {}
    for j, v in row.items():
        w = int(v * den) if isinstance(v, Fraction) else v * den
        if w:
            out[j] = w
    if not out:
        return {}
    g = 0
    for w in out.values():
        g = gcd(g, w)
    if g > 1:
        out = {j: w // g for j, w in out.items()}
    return out


def exact_rank(rows):
    """Rank over Q of the span of the given sparse rows.

    Fraction-free: rows are scaled to integers, elimination uses cross
    multiples followed by content reduction.  Pivot rule: the column held
    by fewest rows, then the sparsest row in it (Markowitz-lite).
    """
    mat = {}
    for r in rows:
        rr = _int_row(r)
        if rr:
            mat[len(mat)] = rr
    colrows = defaultdict(set)
    for i, r in mat.items():
        for c in r:
            colrows[c].add(i)
    rank = 0
    while mat:
        c = min(colrows, key=lambda cc: (len(colrows[cc]), cc))
        cands = colrows[c]
        pi = min(cands, key=lambda i: (len(mat[i]), i))
        prow = mat.pop(pi)
        a = prow[c]
        for cc in prow:
            colrows[cc].discard(pi)
            if not colrows[cc]:
                del colrows[cc]
        rank += 1
        for i in list(colrows.get(c, ())):
            row = mat[i]
            b = row[c]
            new = {}
            for j, v in row.items():
                new[j] = a * v
            for j, v in prow.items():
                nv = new.get(j, 0) - b * v
                if nv:
                    new[j] = nv
                else:
                    new.pop(j, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            for j in row:
                if j not in new:
                    colrows[j].discard(i)
                    if not colrows[j]:
                        del colrows[j]
            for j in new:
                if j not in row:
                    colrows[j].add(i)
            if new:
                mat[i] = new
            else:
                del mat[i]
    return rank

