"""Minimal flabby locally free sheaves on fans of dual-face pairs, their
global sections W, and the contraction/wedge differential on W tensor
the exterior algebra.

The fan lives in M + N: cells are pairs (theta, sigma) of faces of the
two dual cones with sigma inside the annihilator of theta.  A FanSpace
makes each cell once, and cells compare by identity; the facets of a
cell and the restrictions of its linear functionals to each facet are
data of the fan, computed with it.  Sections over a cell are free
modules over the polynomial functions on its span; the minimal sheaf is
built by induction over cells in increasing dimension, taking compatible
families over the boundary and a free cover of their quotient by
positive-degree multiples.  Everything is stored bigraded by
(x-degree, y-degree) and truncated at total degree D; the recursion is
degreewise exact below the truncation.  BigradedComplex(sheaf) is the one
object for W tensor Lambda* N: it holds W in each bidegree as the one
Echelon that ``kernel_basis`` returns for the agreement constraints over
the maximal cells.  A compatible family, over a cell's boundary as over
the maximal cells, is asked to agree across walls only, a wall being a
facet of two cells of the list (``agreement``), so every restriction is
to a facet.  d checks each image against those constraints, whose
kernel W is, and reads its coordinates at the echelon's pivot columns.
Its d has the X tensor Lambda* N form stated in the ``koszul`` module
docstring; ``d_column`` reads the actions of m_i and n_i on W from one
table per bidegree (``_action_table``).

A FanSpace builds its own face posets.  ``_nonzero_cohomology`` gives
the cohomology of one sheaf as plain dims; ``jacobian.Context`` holds it
once per job (``Context.fan``, ``Context.sheaf_cohomology``), and
``reporting`` decides what the theorems assert about it.  This module
imports neither jacobian nor gpoly: the generator bidegrees over a cell
are predicted by the product of the g-polynomials of its two faces, an
oracle the tests hold.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import TruncationTooSmall
from .koszul import _slots
from .lattice import FacePoset, annihilator_face, dual_cone, span_coords
from .linalg import Complex, Echelon, _add, kernel_basis


@dataclass(frozen=True, eq=False)
class Cell:
    """A cell of a FanSpace; made only by the fan, equal only to itself."""
    theta: object
    sigma: object

    @property
    def dim(self):
        return self.theta.dim + self.sigma.dim

    def key(self):
        return (self.theta.key(), self.sigma.key())

    def __repr__(self):
        return "Cell(%d+%d)" % (self.theta.dim, self.sigma.dim)


def _fun_restr(big, small):
    """Row i: the i-th span functional of the big face restricted to the
    small one, as (j, coefficient) pairs over the small face's."""
    rows = [[] for _ in range(big.dim)]
    for j, bv in enumerate(small.span_basis):
        for i, c in enumerate(span_coords(big, bv)):
            if c:
                rows[i].append((j, c))
    return tuple(tuple(r) for r in rows)


class FanSpace:
    """Fan of dual-face pairs (theta, sigma) with sigma inside theta*.

    facets[cell] lists the cells of one dimension less inside the cell,
    sorted by key; restriction[(cell, facet)] holds the theta-side and
    sigma-side rows of _fun_restr."""

    def __init__(self, cone):
        self.cone = cone
        self.dual = dual_cone(cone)
        self.poset = FacePoset(self.cone)
        self.dual_poset = FacePoset(self.dual)
        self.rank = cone.ambient_rank
        cells = []
        for theta in self.poset:
            tstar = annihilator_face(theta, self.dual_poset)
            for sigma in self.dual_poset:
                if self.dual_poset.leq(sigma, tstar):
                    cells.append(Cell(theta, sigma))
        self.cells = tuple(sorted(cells, key=lambda c: (c.dim, c.key())))
        self._by_active = {(c.theta.active, c.sigma.active): c
                           for c in self.cells}
        self.maximal = tuple(
            c for c in self.cells
            if c.sigma is annihilator_face(c.theta, self.dual_poset))
        # cells are sorted by (dim, key), so each facet tuple is by key
        self.facets = {c: tuple(f for f in self.cells
                                if f.dim == c.dim - 1 and self.leq(f, c))
                       for c in self.cells}
        self.restriction = {(c, f): (_fun_restr(c.theta, f.theta),
                                     _fun_restr(c.sigma, f.sigma))
                            for c in self.cells for f in self.facets[c]}

    def cell(self, theta, sigma):
        """The fan's cell on (theta, sigma); ValueError when none."""
        got = self._by_active.get((theta.active, sigma.active))
        if got is None:
            raise ValueError("(theta, sigma) is not a cell of the fan")
        return got

    def zero_cell(self):
        return self.cells[0]

    def leq(self, c1, c2):
        return (self.poset.leq(c1.theta, c2.theta)
                and self.dual_poset.leq(c1.sigma, c2.sigma))


@lru_cache(maxsize=None)
def _monomials(nvars, total):
    """Exponent vectors of the monomials of one degree, sorted."""
    if nvars == 0:
        return ((),) if total == 0 else ()
    if total == 0:
        return ((0,) * nvars,)
    return tuple(sorted((first,) + rest for first in range(total + 1)
                        for rest in _monomials(nvars - 1, total - first)))


class MinimalSheaf:
    """Minimal flabby locally free sheaf originating at a cell, with all
    section data truncated at total degree D."""

    def __init__(self, fan, origin, D):
        if D < 0:
            raise TruncationTooSmall("negative truncation degree")
        self.fan = fan
        self.origin = fan.cell(origin.theta, origin.sigma)
        self.D = D
        self.support = frozenset(
            c for c in fan.cells if fan.leq(self.origin, c))
        self.gens = {}            # cell -> tuple of (p, q)
        self.lifts = {}           # cell -> list of {facet: vec}
        self._basis_cache = {}
        self._restr_cache = {}
        self._gamma_cache = {}
        self._shift_cache = {}
        self._build()

    # -- free-module bookkeeping ------------------------------------

    def basis_at(self, cell, a, b):
        """(basis, index) of the cell's sections at (a, b); the cell must
        be built already; in (generator, u, v) order, as the loops yield."""
        key = (cell, a, b)
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        out = tuple((um, vm, gi)
                    for gi, (p, q) in enumerate(self.gens[cell])
                    if a >= p and b >= q
                    for um in _monomials(cell.theta.dim, a - p)
                    for vm in _monomials(cell.sigma.dim, b - q))
        self._basis_cache[key] = (out, {e: i for i, e in enumerate(out)})
        return self._basis_cache[key]

    def dim_at(self, cell, a, b):
        if cell not in self.support:
            return 0
        return len(self.basis_at(cell, a, b)[0])

    def _shift(self, cell, side, j, a, b):
        """Index map of multiplication by the j-th u- (side 0) or v- (side
        1) variable of the cell, from the basis at (a, b) to the next."""
        key = (cell, side, j, a, b)
        got = self._shift_cache.get(key)
        if got is None:
            index_dst = self.basis_at(cell, a + 1 - side, b + side)[1]
            got = []
            for um, vm, gi in self.basis_at(cell, a, b)[0]:
                if side == 0:
                    um = um[:j] + (um[j] + 1,) + um[j + 1:]
                else:
                    vm = vm[:j] + (vm[j] + 1,) + vm[j + 1:]
                got.append(index_dst[(um, vm, gi)])
            got = self._shift_cache[key] = tuple(got)
        return got

    def mul_linear(self, cell, side, coeffs, vec, a, b):
        """Multiply by sum_j coeffs[j] * (j-th u- (side 0) or v- (side 1)
        functional of the cell)."""
        out = {}
        for j, c in coeffs:
            shift = self._shift(cell, side, j, a, b)
            for i, val in vec.items():
                _add(out, shift[i], c * val)
        return out

    def act(self, side, coeffs, layout, tgt_layout, a, b):
        """Multiplication at (a, b) by a linear function given per cell by
        coeffs(cell), from families laid out cell by cell into tgt_layout:
        a function of the family, which sums one sparse image per layout
        index, each made once."""
        images = []
        for (c, _, d), (_, off2, _) in zip(layout, tgt_layout):
            shifts = [(self._shift(c, side, j, a, b), v)
                      for j, v in coeffs(c)]
            for i in range(d):
                img = {}
                for shift, v in shifts:
                    _add(img, off2 + shift[i], v)
                images.append(img)

        def apply(vec):
            out = {}
            for i, v in vec.items():
                for t, w in images[i].items():
                    _add(out, t, v * w)
            return out
        return apply

    # -- restriction matrices ----------------------------------------

    def restr_cols(self, cell, facet, a, b):
        """Columns of the restriction map L(cell) -> L(facet) at (a, b), to
        a facet of the cell in the support."""
        key = (cell, facet, a, b)
        got = self._restr_cache.get(key)
        if got is None:
            got = self._restr_cache[key] = self._restr_to_facet(
                cell, facet, a, b)
        return got

    def _restr_to_facet(self, cell, facet, a, b):
        """Restriction columns to a support facet.  A generator's column is
        its lift; any other monomial's is the column of the monomial with
        its last variable taken off (v before u, the highest index first),
        one degree lower, times that variable's restriction.  This applies
        the variables one at a time, u's then v's by index, as a product
        from the lift would."""
        basis, _ = self.basis_at(cell, a, b)
        restr = self.fan.restriction[(cell, facet)]
        gdegs = self.gens[cell]
        cols = []
        for um, vm, gi in basis:
            p, q = gdegs[gi]
            if (a, b) == (p, q):
                cols.append(dict(self.lifts[cell][gi].get(facet, {})))
                continue
            side, m = (1, vm) if b > q else (0, um)
            j = max(k for k, e in enumerate(m) if e)
            m = m[:j] + (m[j] - 1,) + m[j + 1:]
            la, lb = a - 1 + side, b - side
            low = (um, m, gi) if side else (m, vm, gi)
            col = self.restr_cols(cell, facet, la, lb)[
                self.basis_at(cell, la, lb)[1][low]]
            cols.append(self.mul_linear(facet, side, restr[side][j], col,
                                        la, lb))
        return cols

    # -- compatible families ------------------------------------------

    def section_layout(self, cells, a, b):
        layout = []
        off = 0
        for c in cells:
            d = self.dim_at(c, a, b)
            layout.append((c, off, d))
            off += d
        return layout, off

    def agreement(self, cells, a, b):
        """(layout, columns) of the agreement constraints over the cells:
        column k holds the constraints' entries at layout index k, so the
        compatible families over the cells are the kernel of this matrix,
        which ``kernel_basis`` returns.

        Two sections agree across each wall, a facet of two of the cells.
        That is enough: two cells meeting in tau are joined through tau by
        a chain of the cells, consecutive ones sharing a wall (the face
        interval is connected by covers, the facets of a cell by ridges),
        and a restriction to tau factors through the wall.  ValueError
        when a wall is held by more than two cells."""
        layout, total = self.section_layout(cells, a, b)
        held = {}
        for entry in layout:
            for wall in self.fan.facets[entry[0]]:
                held.setdefault(wall, []).append(entry)
        columns = [dict() for _ in range(total)]
        rowkey = 0
        for wall, sides in held.items():
            if len(sides) > 2:
                raise ValueError("a wall held by more than two cells")
            if len(sides) < 2:
                continue
            (c1, off1, d1), (c2, off2, d2) = sides
            dw = self.dim_at(wall, a, b)
            if dw == 0 or d1 == d2 == 0:
                continue
            for l, col in enumerate(self.restr_cols(c1, wall, a, b)):
                for t, v in col.items():
                    columns[off1 + l][rowkey + t] = v
            for l, col in enumerate(self.restr_cols(c2, wall, a, b)):
                for t, v in col.items():
                    columns[off2 + l][rowkey + t] = -v
            rowkey += dw
        return layout, columns

    def gamma_boundary(self, cell, a, b):
        key = (cell, a, b)
        got = self._gamma_cache.get(key)
        if got is None:
            facets = [f for f in self.fan.facets[cell] if f in self.support]
            layout, columns = self.agreement(facets, a, b)
            got = self._gamma_cache[key] = (
                facets, layout, kernel_basis(columns).basis_rows())
        return got

    # -- construction --------------------------------------------------

    def _build(self):
        for cell in self.fan.cells:
            if cell not in self.support:
                continue
            if cell is self.origin:
                self.gens[cell] = ((0, 0),)
                self.lifts[cell] = [{}]
                continue
            gens = []
            lifts = []
            for s in range(self.D + 1):
                for a in range(s + 1):
                    b = s - a
                    _, layout, gamma = self.gamma_boundary(cell, a, b)
                    if not gamma:
                        continue
                    # the images lie in gamma: once they span it, no
                    # image and no gamma vector can add a pivot
                    ech = Echelon()
                    for out in self._positive_images(cell, layout, a, b):
                        if ech.rank == len(gamma):
                            break
                        ech.insert(out)
                    for vec in gamma:
                        if ech.rank == len(gamma):
                            break
                        piv = ech.insert(dict(vec))
                        if piv is None:
                            continue
                        row = ech.row(piv)
                        gens.append((a, b))
                        lifts.append(self._split(layout, row))
            self.gens[cell] = tuple(gens)
            self.lifts[cell] = lifts
            # only the build of this cell reads its boundary families
            self._gamma_cache.clear()

    def _positive_images(self, cell, layout, a, b):
        """The families of degree one less times the cell's variables, one
        image at a time, in the layout at (a, b)."""
        for side, da, db in ((0, a - 1, b), (1, a, b - 1)):
            if da < 0 or db < 0:
                continue
            _, low_layout, low_gamma = self.gamma_boundary(cell, da, db)
            if not low_gamma:
                continue
            for j in range((cell.theta, cell.sigma)[side].dim):
                def coeffs(f):
                    return self.fan.restriction[(cell, f)][side][j]
                act = self.act(side, coeffs, low_layout, layout, da, db)
                for vec in low_gamma:
                    yield act(vec)

    @staticmethod
    def _split(layout, vec):
        out = {}
        for cellobj, off, d in layout:
            comp = {i - off: v for i, v in vec.items() if off <= i < off + d}
            if comp:
                out[cellobj] = comp
        return out


class BigradedComplex:
    """(W tensor Lambda* N, d) for a minimal sheaf, split by the preserved
    grading gr = deg_x - deg_y + Lambda-degree; d raises s = deg_x + deg_y
    by 1.  W is the global sections: at (a, b), the compatible families
    over the maximal cells of the support, held by ``space(a, b)``.  The
    i-th functions m_i of M and n_i of N are the unit vectors."""

    def __init__(self, sheaf):
        self.sheaf = sheaf
        self.r = sheaf.fan.rank
        self.D = sheaf.D
        self.maxcells = [c for c in sheaf.fan.maximal if c in sheaf.support]
        self._spaces = {}         # (a, b) -> (layout, Echelon)
        self._constraints = {}    # (a, b) -> agreement columns of W
        self._actions = {}        # (a, b) -> action rows by side, then i

    def space(self, a, b):
        """(layout, Echelon) of W in bidegree (a, b); the echelon's
        ``basis_rows()`` are the basis.  A vector lies in W when the
        agreement constraints vanish on it, and its coordinates are then
        its entries at the echelon's pivot columns."""
        got = self._spaces.get((a, b))
        if got is None:
            layout, columns = self.sheaf.agreement(self.maxcells, a, b)
            ech = kernel_basis(columns)
            got = self._spaces[(a, b)] = (layout, ech)
            self._constraints[(a, b)] = columns
        return got

    def dim(self, a, b):
        return self.space(a, b)[1].rank

    def _action_table(self, a, b):
        """Every action on W_(a, b), built once: by side and then i, the
        sparse rows [(t2, v), ...] of n_i on the theta spans into
        W_(a+1, b) (side 0) or of m_i on the sigma spans into W_(a, b+1)
        (side 1).  ValueError when an image leaves W."""
        got = self._actions.get((a, b))
        if got is None:
            basis = self.space(a, b)[1].basis_rows()
            got = self._actions[(a, b)] = tuple(
                tuple(self._action_rows(side, i, a, b, basis)
                      for i in range(self.r))
                for side in (0, 1))
        return got

    def _action_rows(self, side, i, a, b, basis):
        layout = self.space(a, b)[0]
        ta, tb = a + 1 - side, b + side
        tgt_layout, tgt = self.space(ta, tb)
        columns, pivots = self._constraints[(ta, tb)], tgt.pivot_columns()

        def fn(cell):
            sb = (cell.theta, cell.sigma)[side].span_basis
            return tuple((k, bv[i]) for k, bv in enumerate(sb) if bv[i])
        act = self.sheaf.act(side, fn, layout, tgt_layout, a, b)
        rows = []
        for row in basis:
            out = act(row)
            check = {}
            get = check.get
            for k, v in out.items():
                for j, w in columns[k].items():
                    check[j] = get(j, 0) + v * w
            if any(check.values()):
                raise ValueError("vector not in span")
            rows.append([(t2, out[c]) for t2, c in enumerate(pivots)
                         if c in out])
        return rows

    def block_basis(self, gr, s):
        """Basis labels (a, b, S, t) with a+b = s, a-b+|S| = gr."""
        out = []
        for a in range(s + 1):
            b = s - a
            ell = gr - a + b
            if ell < 0 or ell > self.r:
                continue
            d = self.dim(a, b)
            if d == 0:
                continue
            for S in combinations(range(self.r), ell):
                for t in range(d):
                    out.append((a, b, S, t))
        return out

    def d_column(self, label):
        """d of one label (a, b, S, t) over the next block's labels: the
        form of the ``koszul`` module docstring with X = W, so per slot i
        of S the side-0 action of n_i, per other i the side-1 one of m_i."""
        a, b, S, t = label
        table = self._action_table(a, b)
        col = {}
        for side, slots in enumerate(_slots(S, self.r)):
            rows = table[side]
            for sign, i, S2 in slots:
                key = (a + 1 - side, b + side, S2)
                for t2, v in rows[i][t]:
                    col[key + (t2,)] = sign * v
        return col

    def engine(self):
        """A new ``linalg.Complex`` of the blocks, keyed (gr, s).  It is
        not kept: an engine held here would close a reference cycle
        through its bound methods and keep the sheaf alive until the
        cyclic collector ran."""
        return Complex(self.block_basis, self.d_column, (0, 1))

    def gr_values(self, s):
        lo = -s
        hi = s + self.r
        return range(lo, hi + 1)

    def cohomology(self):
        """dims of H at every (gr, s) with s <= D-1 (the certified window)."""
        cx = self.engine()
        out = {}
        for s in range(self.D):
            for gr in self.gr_values(s):
                if cx.basis(gr, s):
                    out[(gr, s)] = cx.dim(gr, s)
        return out


def _nonzero_cohomology(fan, origin, D):
    """Nonzero dims of H(W tensor Lambda*N, d) for the sheaf at origin,
    by (gr, deg_x + deg_y) with deg_x + deg_y <= D - 1."""
    if D < 1:
        raise TruncationTooSmall("no certified window below D=1")
    h = BigradedComplex(MinimalSheaf(fan, origin, D)).cohomology()
    return {k: d for k, d in h.items() if d}
