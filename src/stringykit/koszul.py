"""The double Koszul complex on C[(K + K_dual)_0] tensor Lambda* N and
its two differentials, with the decomposition oracles for both.

Basis elements are triples (m, n, S): lattice points with <m, n> = 0 and
an ascending wedge subset of the standard basis of N.  The plain
differential d is graded by <m, deg_dual> + <deg, n>; the deformed one
d_hat by 2 <m, deg_dual> + |S|, whose graded pieces are finite only
after capping the n-degree.

For d_hat cohomology the quotient complexes V/S_p alone stabilize to a
wrong answer (formal exponential cocycles survive every cap), so the
computed invariant is: kernel of the EXACT differential among vectors
supported below the cap, modulo exact boundaries of vectors supported
one step lower.  Stabilization over consecutive caps plus the
R1/R1-hat assembly oracle certify the result.

The job-level entry points take one ``jacobian.Context``, whose f and g
were certified when it was made; the assemblies read R1 and R1-hat from
it (``Context.r1``, ``Context.r1_hat``).  The complex primitives
(``v_basis``, columns, matrices) take explicit data and certify nothing.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import InfinitePiece, TruncationTooSmall
from .lattice import dot, dual_face, padd, points_at_degree
from .linalg import _add, exact_pivots


def _wedges(r):
    out = [()]
    for j in range(r):
        out = out + [S + (j,) for S in out]
    return sorted(out, key=lambda S: (len(S), S))


def v_basis(pair, grading, bound, n_cap=None):
    """Graded pieces of the complex: {value: [(m, n, S), ...]}.

    grading "d": value = <m,deg_dual> + <deg,n> up to bound.
    grading "dhat": value = 2<m,deg_dual> + |S| up to bound; requires an
    n-degree cap (InfinitePiece otherwise), points with <deg,n> <= n_cap.
    """
    r = pair.rank
    wedges = _wedges(r)
    top, dual_top = pair.poset().top, pair.dual_poset().top
    out = {}
    if grading == "d":
        pts_m = [points_at_degree(top, a, pair.deg_dual)
                 for a in range(bound + 1)]
        pts_n = [points_at_degree(dual_top, b, pair.deg)
                 for b in range(bound + 1)]
        for k in range(bound + 1):
            elems = []
            for a in range(k + 1):
                for m in pts_m[a]:
                    for n in pts_n[k - a]:
                        if dot(m, n) == 0:
                            elems.extend((m, n, S) for S in wedges)
            out[k] = sorted(elems)
        return out
    if grading == "dhat":
        if n_cap is None:
            raise InfinitePiece(
                "d-hat graded pieces are infinite without an n-degree cap")
        pts_m = [points_at_degree(top, a, pair.deg_dual)
                 for a in range(bound // 2 + 1)]
        pts_n = [points_at_degree(dual_top, b, pair.deg)
                 for b in range(n_cap + 1)]
        for gv in range(bound + 1):
            elems = []
            for a in range(gv // 2 + 1):
                ell = gv - 2 * a
                if ell > r:
                    continue
                level_wedges = [S for S in wedges if len(S) == ell]
                for m in pts_m[a]:
                    for pts in pts_n:
                        for n in pts:
                            if dot(m, n) == 0:
                                elems.extend(
                                    (m, n, S) for S in level_wedges)
            out[gv] = sorted(elems)
        return out
    raise ValueError("grading must be 'd' or 'dhat'")


def _contract(mvec, S):
    """Contraction of the wedge monomial S by the vector mvec, as
    (sign * coefficient, S minus one index) terms."""
    for pos, j in enumerate(S):
        if mvec[j]:
            yield ((-1) ** pos) * mvec[j], S[:pos] + S[pos + 1:]


def _wedge(nvec, S):
    """Wedge of the vector nvec with the wedge monomial S, as
    (sign * coefficient, sorted S plus one index) terms."""
    for j in range(len(nvec)):
        if j in S or not nvec[j]:
            continue
        pos = sum(1 for i in S if i < j)
        yield ((-1) ** pos) * nvec[j], tuple(sorted(S + (j,)))


def d_column(pair, f, g, elt):
    """Image of a basis element under d = f-contraction + g-wedge;
    products violating <m, n> = 0 are zero by the quotient relation."""
    m1, n1, S = elt
    col = {}
    for m in f.domain():
        fm = f(m)
        if not fm:
            continue
        m2 = padd(m, m1)
        if dot(m2, n1) != 0:
            continue
        for sign, S2 in _contract(m, S):
            _add(col, (m2, n1, S2), sign * fm)
    for n in g.domain():
        gn = g(n)
        if not gn:
            continue
        n2 = padd(n, n1)
        if dot(m1, n2) != 0:
            continue
        for sign, S2 in _wedge(n, S):
            _add(col, (m1, n2, S2), sign * gn)
    return col


def dhat_column(pair, f, g, elt, drop_from=None):
    """Image under d_hat = d + wedging by the element's own n-part.

    drop_from: n-degree at which targets are cut (the literal quotient
    complex V/S_p uses drop_from = p); None keeps the exact image.
    """
    m1, n1, S = elt
    col = d_column(pair, f, g, elt)
    for sign, S2 in _wedge(n1, S):
        _add(col, (m1, n1, S2), sign)
    if drop_from is not None:
        col = {key: v for key, v in col.items()
               if dot(pair.deg, key[1]) < drop_from}
    return col


def d_matrix(pair, f, g, k):
    """Sparse columns of d from grading k, keyed by target basis labels."""
    basis = v_basis(pair, "d", k)[k]
    return basis, [d_column(pair, f, g, e) for e in basis]


def dhat_matrix(pair, f, g, grading_value, p):
    """d_hat on the quotient complex V/S_p at one hat-grading, as sparse
    columns (targets of n-degree >= p are zero in the quotient)."""
    if p < 1:
        raise ValueError("n-cap must be >= 1")
    basis = v_basis(pair, "dhat", grading_value, n_cap=p - 1)[grading_value]
    return basis, [dhat_column(pair, f, g, e, drop_from=p) for e in basis]


def _split_pivots(columns):
    """Pivots of a block-diagonal matrix split by a conserved label."""
    buckets = {}
    for col, t in columns:
        buckets.setdefault(t, []).append(col)
    return {c for cols in buckets.values() for c in exact_pivots(cols)}


def _tau_d(pair, elt):
    m, n, S = elt
    return dot(m, pair.deg_dual) - dot(pair.deg, n) + len(S)


@dataclass
class CohomologyReport:
    """Per-grading dimensions with the rank bookkeeping that produced
    them.  ``euler_ok`` is always True and checks nothing: with dims[k] =
    V_k - r_k - r_(k-1) the alternating sums agree for any ranks."""
    dims: dict
    space_dims: dict
    ranks: dict
    window: dict
    euler_ok: bool
    flags: dict


def cohomology_d(ctx, D=6):
    """Cohomology of (V, d) in gradings 0..D-1 by exact sparse ranks.

    The pivots P of d_(k-1) get no column of d_k.  On P an echelon of
    im d_(k-1) is triangular with a nonzero diagonal, so each tau in P is
    a boundary minus a combination of basis elements outside P; as
    d_k d_(k-1) = 0, d_k(tau) is in the span of their d_k images.  So
    each rank is the true rank, not read off the oracle."""
    if D < 1:
        raise TruncationTooSmall("cohomology_d needs D >= 1")
    pair, f, g = ctx.pair, ctx.f, ctx.g
    basis = v_basis(pair, "d", D)
    vdims = {k: len(basis[k]) for k in range(D + 1)}
    ranks = {}
    pivots = set()
    for k in range(D):
        pivots = _split_pivots([(d_column(pair, f, g, e), _tau_d(pair, e))
                                for e in basis[k] if e not in pivots])
        ranks[k] = len(pivots)
    dims = {}
    for k in range(D):
        dims[k] = vdims[k] - ranks[k] - (ranks[k - 1] if k > 0 else 0)
        assert dims[k] >= 0
    return CohomologyReport(dims=dims, space_dims=vdims, ranks=ranks,
                            window={"max_degree": D - 1},
                            euler_ok=True, flags={})


def _face_sum(ctx, summand):
    """Sum over the faces theta of the pair of summand(theta, theta*), a
    {grading: dim} dict; faces with an empty summand are left out."""
    per_face = []
    total = {}
    for theta in ctx.pair.poset():
        conv = summand(theta, dual_face(ctx.pair, theta))
        if not conv:
            continue
        per_face.append({"theta_dim": theta.dim, "theta": list(theta.key()),
                         "dims": conv})
        for k, d in conv.items():
            total[k] = total.get(k, 0) + d
    return {"per_face": per_face, "total": total}


def decomposition_dims(ctx):
    """Face-by-face convolution of R1 dims: the decomposition side of the
    plain double Koszul cohomology."""
    def summand(theta, sigma):
        rf = ctx.r1(theta, ctx.f).dims_dict()
        rg = ctx.r1(sigma, ctx.g).dims_dict()
        conv = {}
        for i, di in rf.items():
            for j, dj in rg.items():
                conv[i + j] = conv.get(i + j, 0) + di * dj
        return conv
    return _face_sum(ctx, summand)


def cohomology_dhat(ctx, D=6, p_max=8):
    """Stabilized d_hat cohomology dims per hat-grading <= D.

    For the cap c, the computed number is
        dim ker(d_hat | n-deg <= c)  -  rank(d_hat | n-deg <= c-1)
    (kernel of the exact differential, boundaries from one step lower).
    A grading is stabilized when two consecutive caps agree; the report
    flags gradings that never stabilize (not fatal, per-grading).
    """
    if p_max < 2:
        raise TruncationTooSmall("cohomology_dhat needs p_max >= 2")
    pair, f, g = ctx.pair, ctx.f, ctx.g

    @lru_cache(maxsize=None)
    def basis_at(gv, cap):
        return v_basis(pair, "dhat", gv, n_cap=cap)[gv]

    @lru_cache(maxsize=None)
    def pivots_at(gv, cap):
        """Pivots of the exact d_hat on basis vectors of n-degree <= cap;
        those of (gv-1, cap-1) lie there and get no column (as in
        cohomology_d)."""
        drop = pivots_at(gv - 1, cap - 1) if gv and cap else ()
        return set(exact_pivots([dhat_column(pair, f, g, e) for e in
                                 basis_at(gv, cap) if e not in drop]))

    def h_at(gv, cap):
        kdim = len(basis_at(gv, cap)) - len(pivots_at(gv, cap))
        bdim = len(pivots_at(gv - 1, cap - 1)) if gv > 0 else 0
        return kdim - bdim

    dims = {}
    stop_at = {}
    flags = {}
    space_dims = {}
    for gv in range(D + 1):
        prev = None
        stabilized = None
        for p in range(2, p_max + 1):
            cur = h_at(gv, p - 1)
            if prev is not None and cur == prev:
                stabilized = (p - 1, cur)
                break
            prev = cur
        if stabilized is None:
            flags[gv] = "not-stabilized"
            dims[gv] = prev
            stop_at[gv] = p_max
        else:
            dims[gv] = stabilized[1]
            stop_at[gv] = stabilized[0]
        space_dims[gv] = len(basis_at(gv, stop_at[gv] - 1))
    return CohomologyReport(dims=dims, space_dims=space_dims,
                            ranks={gv: len(pivots_at(gv, stop_at[gv] - 1))
                                   for gv in range(D + 1)},
                            window={"max_hat_grading": D,
                                    "p_max": p_max,
                                    "stabilized_at": stop_at},
                            euler_ok=True, flags=flags)


def cohomology_ha(ctx, D=None, p_max=8):
    """The A-space by delegation: H_A of (f, g) is H_B of the swapped
    pair with the coefficient roles exchanged.  No second differential
    implementation exists on purpose (one sign convention, one code
    path)."""
    if D is None:
        D = 2 * ctx.pair.rank
    return cohomology_dhat(ctx.swap(), D=D, p_max=p_max)


def hb_assemble(ctx):
    """Assembly of the deformed cohomology from faces: each graded piece
    R1(f, theta)_i tensor R1hat(g, theta*) lands in grading
    2 i + dim theta*.  R1-hat is read only where R1(f, theta) != 0."""
    def summand(theta, sigma):
        rf = ctx.r1(theta, ctx.f).dims_dict()
        if not rf:
            return {}
        hat_total = ctx.r1_hat(sigma, ctx.g).total()
        return {2 * i + sigma.dim: di * hat_total
                for i, di in rf.items() if hat_total}
    return _face_sum(ctx, summand)
