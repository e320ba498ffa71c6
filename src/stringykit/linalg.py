"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping column index to a nonzero rational: an ``int``
when it is integral, a ``Fraction`` otherwise (``rational`` converts).
Both engines are fraction-free: a row is cleared of denominators once,
then eliminated over ``int`` by cross multiples (``_combine``) and kept
primitive by dividing out its content.

* ``exact_pivots`` -- the rank engine (``exact_rank`` counts its pivot
  columns) over int-keyed rows, with a cheap Markowitz-style pivot rule.
* ``Complex`` -- a cochain complex in pieces, each eliminated once by
  ``exact_pivots`` with the pivots of the piece before pruning its
  columns; the engine of the Koszul and sheaf cohomologies.  It numbers
  each piece's labels once, by their positions in the piece's sorted
  basis, so its rows reach ``exact_pivots`` int-keyed, in label order.
* ``Echelon`` -- an insertion echelon in reduced form.  Deterministic
  (smallest column wins), so every basis derived from it is canonical.
  A row is stored as a primitive integer row with a positive pivot
  entry, scaled together with a parallel "shadow" vector, which gives
  kernel tracking, coordinate extraction and the derivative bookkeeping
  of the hat-module connection.  Rationals are built only when a value
  is read out.

Most rows hold ints only, so the kernels take an int path where they can:
``_clear_denominators`` folds ``lcm`` over the non-int entries alone and
copies an all-int row without rescaling it.
"""

from bisect import insort
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


def rational(v):
    """v as an exact rational: an int when integral, else a Fraction."""
    if isinstance(v, int):
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def _over(vec, d):
    """An int vec divided by d > 0, as exact rationals."""
    out = {}
    for j, v in vec.items():
        q, r = divmod(v, d)
        out[j] = Fraction(v, d) if r else q
    return out


def _add(vec, key, val):
    """vec[key] += val in place, dropping a zero."""
    nv = vec.get(key, 0) + val
    if nv:
        vec[key] = nv
    else:
        vec.pop(key, None)


def _combine(a, vec, b, row):
    """a*vec - b*row as a new sparse dict, dropping zeros."""
    out = dict(vec) if a == 1 else {j: a * v for j, v in vec.items()}
    get = out.get
    for j, v in row.items():
        nv = get(j, 0) - b * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


def vec_add(a, b, coeff=1):
    """a + coeff*b as sparse dicts, dropping zeros."""
    return _combine(1, a, -coeff, b)


def _cross(p, v):
    """Cross multiples (a, b) with a*v - b*p == 0 and a > 0 when p > 0:
    the row step a*vec - b*row clears the entry v of vec against the
    pivot entry p of row."""
    g = gcd(p, v)
    return p // g, v // g


# lcm and gcd fold entry by entry: lcm(*values) would build an argument
# tuple per row, and the tuple free lists keep that memory to the end.
def _clear_denominators(vecs):
    """(den, int vecs) with every vec scaled by den, the least common
    denominator of all their entries; zero entries are dropped."""
    den, ints = 1, True
    for v in chain.from_iterable(vec.values() for vec in vecs):
        if v.__class__ is not int:
            ints = False
            den = lcm(den, v.denominator)
    if ints:
        return 1, [{j: v for j, v in vec.items() if v} for vec in vecs]
    return den, [{j: v.numerator * (den // v.denominator)
                  for j, v in vec.items() if v} for vec in vecs]


def _divide_content(vecs, sign=1):
    """The int vecs divided by sign times the gcd of all their entries."""
    g = 0
    for v in chain.from_iterable(vec.values() for vec in vecs):
        g = gcd(g, v)
        if g == 1:
            break
    g *= sign
    if g == 1:
        return list(vecs)
    return [{j: v // g for j, v in vec.items()} for vec in vecs]


class Echelon:
    """Reduced row echelon basis that grows by insertion.

    A row is held as a primitive int row with a positive entry at its
    pivot and none at any other pivot, with its shadow scaled the same
    way; ``row(c)`` and ``shadow(c)`` divide by the pivot entry.  So
    ``reduce`` returns the canonical representative of a coset, and the
    coordinates of a vector of the span are its entries at the pivot
    columns.

    The rows depend on the span alone, so the order of insertion changes
    the cost, never the result (the shadows follow the inserted vectors).
    A vector whose pivot lies in no earlier row costs no back-substitution;
    callers insert in an order that makes this common.
    """

    def __init__(self):
        self._rows = {}      # pivot col -> primitive int row, row[c] > 0
        self._shadows = {}   # pivot col -> int shadow, scaled with the row

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec, shadow):
        """(den, rem, sh) with den * (vec - pivot combination) == rem,
        rem and sh over int."""
        den, (rem, sh) = _clear_denominators((vec, shadow or {}))
        for c in [c for c in rem if c in self._rows]:
            # a row holds no pivot but its own: rem[c] is still nonzero
            row = self._rows[c]
            a, b = _cross(row[c], rem[c])
            rem = _combine(a, rem, b, row)
            sh = _combine(a, sh, b, self._shadows[c])
            den *= a
        return den, rem, sh

    def reduce(self, vec, shadow=None):
        """Eliminate all pivot columns from vec; returns (rem, rem_shadow),
        rem_shadow None when no shadow is given."""
        den, rem, sh = self._reduce(vec, shadow)
        return _over(rem, den), None if shadow is None else _over(sh, den)

    def insert(self, vec, shadow=None):
        """Insert a vector; returns the new pivot column or None if dependent.

        Pivot choice: the smallest column of the remainder.
        """
        _, rem, sh = self._reduce(vec, shadow)
        if not rem:
            return None
        c = min(rem)
        row, srow = _divide_content((rem, sh), -1 if rem[c] < 0 else 1)
        # back-substitute to keep the basis reduced
        for c0, row0 in self._rows.items():
            if c in row0:
                a, b = _cross(row[c], row0[c])
                self._rows[c0], self._shadows[c0] = _divide_content((
                    _combine(a, row0, b, row),
                    _combine(a, self._shadows[c0], b, srow)))
        self._rows[c] = row
        self._shadows[c] = srow
        return c

    def copy(self):
        """An echelon with the same rows, grown on its own.  A row is
        replaced, never changed in place, so the two share their rows."""
        other = Echelon()
        other._rows, other._shadows = dict(self._rows), dict(self._shadows)
        return other

    def row(self, c):
        """The reduced row of pivot c, with a 1 at c."""
        return _over(self._rows[c], self._rows[c][c])

    def shadow(self, c):
        """The shadow of the reduced row of pivot c."""
        return _over(self._shadows[c], self._rows[c][c])

    def basis_rows(self):
        """Canonical RREF rows, sorted by pivot column."""
        return [self.row(c) for c in self.pivot_columns()]

    def pivot_columns(self):
        return sorted(self._rows)


def kernel_basis(vectors):
    """Kernel of the matrix whose ROWS are the given vectors' coordinates
    in terms of the vector list: an Echelon over the combination
    coordinates, whose ``basis_rows()`` are the canonical combos c with
    sum_i c[i]*v_i = 0.

    One echelon, without shadows, holds the constraints
    sum_i c[i]*v_i[j] = 0, one per coordinate j, on the columns -i, so
    that each pivot is the largest index its row can be solved for.  A
    free index f gives the kernel row with c[f] = 1 and, for each pivot
    -i, c[i] = minus the entry at -f of the reduced row of -i.  It is zero
    at every other free index and its smallest index is f: these rows are
    the kernel's reduced echelon, and are stored as they are, made
    primitive.
    """
    constraints = defaultdict(dict)
    for i, v in enumerate(vectors):
        for j, x in v.items():
            constraints[j][-i] = x
    ech = Echelon()
    for row in constraints.values():
        ech.insert(row)
    free = {f: {f: 1} for f in range(len(vectors)) if -f not in ech._rows}
    for p in ech._rows:
        for c, v in ech.row(p).items():
            if c != p:
                free[-c][-p] = -v
    kernel = Echelon()
    for f, vec in free.items():
        kernel._rows[f], = _divide_content(_clear_denominators([vec])[1])
        kernel._shadows[f] = {}
    return kernel


def exact_pivots(rows):
    """Pivot columns, in elimination order, of the given sparse rows over
    int columns: as many as their rank over Q, and the rows restricted to
    them have it.  The rows hold no zero entry; an empty row is skipped.
    They are read, never changed.

    Fraction-free: rows are scaled to primitive integer rows, elimination
    uses cross multiples followed by content reduction.  Pivot rule: the
    column held by fewest rows, then the smallest such column, then the
    sparsest row in it (Markowitz-lite).  The rule reads only the order of
    the columns, so an order-preserving renumbering moves the pivots with
    it.

    While some column is held by one row, the rule picks the smallest
    such column and its one row, and nothing is eliminated: these steps
    are peeled off first, with no arithmetic, and only the rows left are
    scaled and go to the elimination loop.
    """
    mat = {i: r for i, r in enumerate(rows) if r}
    colrows = defaultdict(set)
    for i, r in mat.items():
        for c in r:
            colrows[c].add(i)
    pivots = []
    # the columns held by one row, negated and sorted: pop() is the smallest
    ones = sorted(-c for c, held in colrows.items() if len(held) == 1)
    while ones:
        c = -ones.pop()
        if not colrows[c]:
            continue        # its row went with an earlier pivot
        pi, = colrows[c]
        pivots.append(c)
        for cc in mat.pop(pi):
            colrows[cc].discard(pi)
            if len(colrows[cc]) == 1:
                insort(ones, -cc)
    for i, r in mat.items():
        mat[i], = _divide_content(_clear_denominators([r])[1])
    # live columns by row count, the column of fewest rows first; a row
    # changes only on the columns of the pivot row, which move between
    # buckets
    buckets = defaultdict(set)
    for c, held in colrows.items():
        if held:
            buckets[len(held)].add(c)
    while mat:
        c = min(buckets[min(n for n, cols in buckets.items() if cols)])
        pi = min(colrows[c], key=lambda i: (len(mat[i]), i))
        prow = mat.pop(pi)
        for cc in prow:
            buckets[len(colrows[cc])].discard(cc)
            colrows[cc].discard(pi)
        pivots.append(c)
        for i in list(colrows[c]):
            row = mat[i]
            a, b = _cross(prow[c], row[c])
            new, = _divide_content([_combine(a, row, b, prow)])
            for j in row:
                if j not in new:
                    colrows[j].discard(i)
            for j in new:
                if j not in row:
                    colrows[j].add(i)
            if new:
                mat[i] = new
            else:
                del mat[i]
        for cc in prow:
            if colrows[cc]:
                buckets[len(colrows[cc])].add(cc)
            else:
                del colrows[cc]
    return pivots


def exact_rank(rows):
    """Rank over Q of the span of the given sparse rows."""
    return len(exact_pivots(rows))


class _Numbering(dict):
    """Label -> column number; a label not yet numbered gets the next."""

    def __missing__(self, label):
        n = self[label] = len(self)
        return n


class Complex:
    """A cochain complex split into pieces, each eliminated once.

    A piece has a key tuple.  ``basis(*key)`` lists its labels in sorted
    order and ``column(label)`` is d of one label as a sparse dict over
    the labels of the next piece, key + step; the piece before key is
    key - step, and an empty piece ends the chain.  Each basis is read
    once.  A piece's labels are numbered once, by their positions in its
    basis, so ``exact_pivots`` eliminates int-keyed rows whose columns
    keep the labels' order; labels of an empty piece (past the last one
    enumerated) are numbered as first seen.

    The pivots P of d on the piece before get no column here.  The images
    of that d restricted to P have full rank |P|, so each label in P is a
    boundary minus a combination of labels outside P; as d o d = 0, its d
    lies in the span of the d of those labels.  So ``pivots(*key)``, the
    numbers of labels of the next piece, has as many as the rank of d on
    the piece, and the images restricted to them have full rank, as the
    next piece's pruning needs; the cohomology ``dim(*key)`` is
    |basis| - rank out - rank in.
    """

    def __init__(self, basis, column, step):
        self._basis_of, self._column, self._step = basis, column, step
        self._bases = {}
        self._pivots = {}

    def basis(self, *key):
        got = self._bases.get(key)
        if got is None:
            got = self._bases[key] = self._basis_of(*key)
        return got

    def _along(self, key, sign):
        """The key sign steps from key: 1 the next piece, -1 the one before."""
        return tuple(k + sign * s for k, s in zip(key, self._step))

    def pivots(self, *key):
        """The pivots of d on the piece, as many as its rank: numbers of
        the next piece's labels."""
        got = self._pivots.get(key)
        if got is None:
            basis = self.basis(*key)
            if basis:
                drop = self.pivots(*self._along(key, -1))
                nxt = self.basis(*self._along(key, 1))
                index = _Numbering(zip(nxt, range(len(nxt))))
                column = self._column
                got = set(exact_pivots(
                    [{index[e2]: v for e2, v in column(e).items()}
                     for i, e in enumerate(basis) if i not in drop]))
            else:
                got = set()
            self._pivots[key] = got
        return got

    def dim(self, *key):
        """Dimension of the cohomology at the piece."""
        h = (len(self.basis(*key)) - len(self.pivots(*key))
             - len(self.pivots(*self._along(key, -1))))
        assert h >= 0
        return h
