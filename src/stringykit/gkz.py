"""Connection data on the hatted interior quotients: multiplication-style
expansion matrices, their commutation, and the exact flatness identity.

For a face sigma and a base point g0, the basis is a fixed set of
interior monomials whose hat-classes span the quotient; the matrix A_n
expands the class of (basis monomial + n) back in the basis.  The
structure equations dPhi_c/dg(n) = Phi_{c+n} of the degree-zero
hypergeometric system dualize to the curvature identity
    d/dg(n) A_{n'} - d/dg(n') A_n = [A_{n'}, A_n],
which reduces to plain derivative symmetry whenever the matrices
commute.  Derivatives are exact rationals taken from the reduction
itself (``HatModel.row_derivatives``), never from the identity they are
checked against.

A block is a ``ConnectionData``, read from one certified hat model
(``Context.hat_model``).  ``connection_on_hb(ctx)`` takes the models and
R1 from the job's ``jacobian.Context``, whose f and g were certified
when it was made, so a job builds each one once.
``curvature_report(block)`` evaluates the identity on a block; the
verdict is written by ``reporting``.
"""

from .errors import TruncationTooSmall
from .jacobian import _delta_in_face
from .lattice import dot, dual_face, padd
from .linalg import vec_add


def _transpose(cols):
    return [list(row) for row in zip(*cols)]


class ConnectionData:
    """Expansion matrices A_n on one face's hat-quotient at a base point.

    The basis is every interior monomial with a new class, in (degree,
    lex) order, independent of g near g0; ``model.classes`` gives
    coordinates in it.  ``matrices[n]`` is A_n for every degree-one
    point n of the face: column i expands basis[i] + n in the basis.
    """

    def __init__(self, model):
        self.model = model
        self.sigma, self.g0 = model.face, model.g
        self.basis = tuple(p for _, level in model.interior_level_data()
                           for p in level)
        self.matrices = {n: _transpose(self._columns(n))
                         for n in _delta_in_face(self.sigma, self.g0)}

    def dim(self):
        return len(self.basis)

    def _coordinates(self, vec):
        red, sh = self.model.classes.reduce(vec, {})
        if red:
            raise TruncationTooSmall(
                "class not expressible inside the truncation window")
        return [-sh.get(p, 0) for p in self.basis]

    def _columns(self, n):
        """Coordinates of basis[i] + n, one list per basis monomial."""
        cols = []
        for c in self.basis:
            if dot(padd(c, n), self.model.lam) > self.model.D:
                raise TruncationTooSmall(
                    "basis monomial plus n leaves the truncation window")
            cols.append(self._coordinates(
                self.model.class_reduce({padd(c, n): 1})))
        return cols

    def derivatives(self):
        """d/dg(n) A_{n'}, keyed (n, n'), for n and n' in matrices.

        With rem_t the class of monomial t and rem_{c+n'} = sum_i a_i
        rem_{b_i}, the derivative of the coordinates a is the coordinate
        vector of d rem_{c+n'} - sum_i a_i d rem_{b_i}.
        """
        directions = list(self.matrices)
        rows = self.model.row_derivatives(directions)

        def d_class(t, n):
            # the class of t is t - row_t at a pivot t, else t itself
            return {q: -v for (m, q), v in rows.get(t, {}).items() if m == n}

        cols = {n: _transpose(self.matrices[n]) for n in directions}
        deriv = {}
        for n in directions:
            d_basis = [d_class(b, n) for b in self.basis]
            for n2 in directions:
                d_cols = []
                for c, a in zip(self.basis, cols[n2]):
                    vec = d_class(padd(c, n2), n)
                    for a_i, d_b in zip(a, d_basis):
                        if a_i:
                            vec = vec_add(vec, d_b, -a_i)
                    d_cols.append(self._coordinates(vec))
                deriv[(n, n2)] = _transpose(d_cols)
        return deriv


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_mul(a, b):
    k = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)]


def _commutator(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def curvature_report(block):
    """Exact curvature identity at the block's base point,
        d/dg(n) A_{n'} - d/dg(n') A_n = [A_{n'}, A_n],
    over every unordered pair of parameter directions (n = n' included).

    Returns its outcome together with the (generally false) plain
    derivative symmetry and commutativity, reported for the record, and
    the matrices and derivatives checked.
    """
    value = block.matrices
    directions = list(value)
    deriv = block.derivatives()
    flat = True
    symmetric = True
    commuting = True
    pairs = 0
    for i, n in enumerate(directions):
        for nprime in directions[i:]:
            pairs += 1
            bracket = _commutator(value[nprime], value[n])
            if _mat_sub(deriv[(n, nprime)], deriv[(nprime, n)]) != bracket:
                flat = False
            if deriv[(n, nprime)] != deriv[(nprime, n)]:
                symmetric = False
            if any(any(row) for row in bracket):
                commuting = False
    return {"flat": flat, "pairs_checked": pairs,
            "derivative_symmetry": symmetric, "commuting": commuting,
            "dim": block.dim(), "matrices": value, "derivatives": deriv}


def connection_on_hb(ctx):
    """One block of connection data per face theta* carrying a nonzero
    hatted summand, at the base point ctx.g; parameters g(v) with v
    outside the face do not enter the block's matrices at all."""
    blocks = {}
    for theta in ctx.pair.poset():
        if not ctx.r1(theta, ctx.f):
            continue
        sigma = dual_face(ctx.pair, theta)
        if sigma.key() in blocks:
            continue
        # the context certified g on every face, so only stabilization
        # is left to check
        block = ConnectionData(ctx.hat_model(sigma, ctx.g))
        if block.basis:
            blocks[sigma.key()] = block
    return [blocks[k] for k in sorted(blocks)]
