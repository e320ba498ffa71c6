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

Every block is read from a certified hat model; ``connection_on_hb``
takes them, with R1 and the certificates of f and g, from its ``ctx``
(a ``jacobian.Context``), so a job builds each one once.
"""

from dataclasses import dataclass, field

from .errors import DegenerateCoefficients, TruncationTooSmall
from .jacobian import (Context, HatModel, _delta_in_face,
                       face_is_nondegenerate)
from .lattice import dot, dual_face, faces, padd
from .linalg import Echelon, vec_add


def _certify_face(face, g, ctx):
    poset = faces(face.cone)
    for sub in poset:
        if poset.leq(sub, face) and not face_is_nondegenerate(sub, g, ctx):
            raise DegenerateCoefficients(
                "coefficients degenerate on a face of dimension %d"
                % sub.dim)


def _transpose(cols):
    return [list(row) for row in zip(*cols)]


class _QuotientBasis:
    """Hat-quotient of one face with coordinates in a fixed monomial
    basis; by default every interior monomial with a new class."""

    def __init__(self, model, basis_points=None):
        self.model = model
        if basis_points is None:
            data = model.interior_level_data()
            basis_points = [p for _, level in data for p, _ in level]
        self.basis_points = list(basis_points)
        self._matrices = {}
        self._coords = Echelon()
        for i, p in enumerate(self.basis_points):
            rem = model.class_reduce({p: 1})
            if not rem or self._coords.insert(dict(rem), {i: 1}) is None:
                raise DegenerateCoefficients(
                    "selected monomials do not stay a basis")

    def _coordinates(self, vec):
        red, sh = self._coords.reduce(vec, {})
        if red:
            raise TruncationTooSmall(
                "class not expressible inside the truncation window")
        return [-sh.get(i, 0) for i in range(len(self.basis_points))]

    def expand(self, point):
        """Coordinates of the class of one monomial in the basis."""
        return self._coordinates(self.model.class_reduce({point: 1}))

    def _columns(self, n):
        """Coordinates of basis[i] + n, one list per basis monomial."""
        cols = []
        for c in self.basis_points:
            if dot(padd(c, n), self.model.lam) > self.model.D:
                raise TruncationTooSmall(
                    "basis monomial plus n leaves the truncation window")
            cols.append(self.expand(padd(c, n)))
        return cols

    def matrix(self, n):
        """A_n (computed once per quotient)."""
        if n not in self._matrices:
            self._matrices[n] = _transpose(self._columns(n))
        return self._matrices[n]

    def derivatives(self, directions):
        """A_n, keyed n, and d/dg(n) A_{n'}, keyed (n, n'), for n and n'
        in directions.

        With rem_t the class of monomial t and rem_{c+n'} = sum_i a_i
        rem_{b_i}, the derivative of the coordinates a is the coordinate
        vector of d rem_{c+n'} - sum_i a_i d rem_{b_i}.
        """
        rows = self.model.row_derivatives(directions)

        def d_class(t, n):
            # the class of t is t - row_t at a pivot t, else t itself
            return {q: -v for (m, q), v in rows.get(t, {}).items() if m == n}

        value = {n: self.matrix(n) for n in directions}
        cols = {n: _transpose(value[n]) for n in directions}
        deriv = {}
        for n in directions:
            d_basis = [d_class(b, n) for b in self.basis_points]
            for n2 in directions:
                d_cols = []
                for c, a in zip(self.basis_points, cols[n2]):
                    vec = d_class(padd(c, n2), n)
                    for a_i, d_b in zip(a, d_basis):
                        if a_i:
                            vec = vec_add(vec, d_b, -a_i)
                    d_cols.append(self._coordinates(vec))
                deriv[(n, n2)] = _transpose(d_cols)
        return value, deriv


def _quotient(sigma, g0, D=None, basis_points=None):
    """The block's quotient basis: certified, with the basis chosen
    here, unless the caller supplies the basis."""
    if D is None:
        D = sigma.dim + 2
    if basis_points is not None:
        return _QuotientBasis(HatModel(sigma, g0, D), basis_points)
    ctx = Context()
    _certify_face(sigma, g0, ctx)
    return _QuotientBasis(ctx.certified_hat_model(sigma, g0, D))


def basis_select(sigma, g0, D=None):
    """Interior monomials whose classes form a basis, chosen greedily in
    (degree, lex) order; the choice is independent of g near g0."""
    return list(_quotient(sigma, g0, D).basis_points)


@dataclass
class ConnectionData:
    """Expansion matrices A_n on one face's hat-quotient at a base point."""
    sigma: object
    g0: object
    basis: tuple
    matrices: dict           # n -> matrix as list of rows
    quotient: object = field(default=None, compare=False, repr=False)

    def dim(self):
        return len(self.basis)


def multiplication_matrix(cd, n):
    """A_n: column i expands the class of basis[i] + n in the basis."""
    if n not in cd.matrices:
        raise ValueError("n is not a degree-one point of the face")
    return cd.matrices[n]


def _connection(qb):
    sigma, g0 = qb.model.face, qb.model.g
    mats = {n: qb.matrix(n) for n in _delta_in_face(sigma, g0)}
    return ConnectionData(sigma=sigma, g0=g0, basis=tuple(qb.basis_points),
                          matrices=mats, quotient=qb)


def connection_data(sigma, g0, D=None, basis_points=None):
    """Build the full matrix family over the face's degree-one points."""
    return _connection(_quotient(sigma, g0, D, basis_points))


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_mul(a, b):
    k = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)]


def _commutator(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def flatness_check(sigma, g0, n, nprime, D=None, basis_points=None):
    """Exact curvature identity at the base point:
    d/dg(n) A_{n'} - d/dg(n') A_n = [A_{n'}, A_n]."""
    qb = _quotient(sigma, g0, D, basis_points)
    value, deriv = qb.derivatives([n, nprime])
    return (_mat_sub(deriv[(n, nprime)], deriv[(nprime, n)])
            == _commutator(value[nprime], value[n]))


def curvature_report(sigma, g0, D=None, basis_points=None, connection=None):
    """Flatness sweep over every ordered pair of parameter directions on
    one face, from one rational build of its hat quotient; a
    ``connection`` from connection_data lends the build it already made.

    Returns the exact outcome of the curvature identity together with
    the (generally false) plain derivative symmetry and commutativity,
    reported for the record, and the matrices and derivatives checked.
    """
    qb = (connection.quotient if connection is not None
          else _quotient(sigma, g0, D, basis_points))
    directions = _delta_in_face(sigma, g0)
    value, deriv = qb.derivatives(directions)
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
            "dim": len(qb.basis_points), "matrices": value,
            "derivatives": deriv}


def connection_on_hb(pair, f, g0, ctx=None):
    """One block of connection data per face theta* carrying a nonzero
    hatted summand; parameters g(v) with v outside the face do not enter
    the block's matrices at all."""
    ctx = Context(pair) if ctx is None else ctx
    ctx.certify(f, g0)
    blocks = {}
    for theta in pair.poset():
        if not ctx.r1(theta, f).total():
            continue
        sigma = dual_face(pair, theta)
        if sigma.key() in blocks:
            continue
        # g0 is certified on every face above, so only stabilization is
        # left to check
        qb = _QuotientBasis(ctx.certified_hat_model(sigma, g0))
        if qb.basis_points:
            blocks[sigma.key()] = _connection(qb)
    return [blocks[k] for k in sorted(blocks)]
