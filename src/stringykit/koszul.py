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

Both cohomologies are eliminated by ``linalg.Complex``, which prunes the
columns of each piece by the pivots of the piece before it.

The job-level entry points take one ``jacobian.Context``, whose f and g
were certified when it was made; the assemblies read R1 and R1-hat from
it (``Context.r1``, ``Context.r1_hat``).  The complex primitives
(``v_basis`` and the columns) take explicit data and certify nothing.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InfinitePiece, TruncationTooSmall
from .lattice import dot, dual_face, padd, points_at_degree
from .linalg import Complex, _add


def v_basis(pair, grading, bound, n_cap=None):
    """Graded pieces of the complex: {value: [(m, n, S), ...]}.

    grading "d": value = <m,deg_dual> + <deg,n> up to bound.
    grading "dhat": value = 2<m,deg_dual> + |S| up to bound; requires an
    n-degree cap (InfinitePiece otherwise), points with <deg,n> <= n_cap.
    """
    if grading == "dhat":
        if n_cap is None:
            raise InfinitePiece(
                "d-hat graded pieces are infinite without an n-degree cap")
        return {gv: _dhat_piece(pair, gv, n_cap) for gv in range(bound + 1)}
    if grading != "d":
        raise ValueError("grading must be 'd' or 'dhat'")
    r = pair.rank
    wedges = [S for ell in range(r + 1) for S in combinations(range(r), ell)]
    top, dual_top = pair.poset().top, pair.dual_poset().top
    pts_m = [points_at_degree(top, a, pair.deg_dual)
             for a in range(bound + 1)]
    pts_n = [points_at_degree(dual_top, b, pair.deg)
             for b in range(bound + 1)]
    out = {}
    for k in range(bound + 1):
        elems = []
        for a in range(k + 1):
            for m in pts_m[a]:
                for n in pts_n[k - a]:
                    if dot(m, n) == 0:
                        elems.extend((m, n, S) for S in wedges)
        out[k] = sorted(elems)
    return out


def _dhat_piece(pair, gv, n_cap):
    """The d-hat grading gv with n-degree <= n_cap, sorted: the piece
    v_basis(pair, "dhat", bound, n_cap)[gv], without the other gradings."""
    r = pair.rank
    top, dual_top = pair.poset().top, pair.dual_poset().top
    pts_n = [n for b in range(n_cap + 1)
             for n in points_at_degree(dual_top, b, pair.deg)]
    elems = []
    for a in range(gv // 2 + 1):
        ell = gv - 2 * a
        if ell > r:
            continue
        level_wedges = list(combinations(range(r), ell))
        for m in points_at_degree(top, a, pair.deg_dual):
            for n in pts_n:
                if dot(m, n) == 0:
                    elems.extend((m, n, S) for S in level_wedges)
    return sorted(elems)


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


def dhat_column(pair, f, g, elt):
    """Image under d_hat = d + wedging by the element's own n-part."""
    m1, n1, S = elt
    col = d_column(pair, f, g, elt)
    for sign, S2 in _wedge(n1, S):
        _add(col, (m1, n1, S2), sign)
    return col


def _tau_d(pair, elt):
    m, n, S = elt
    return dot(m, pair.deg_dual) - dot(pair.deg, n) + len(S)


@dataclass
class CohomologyReport:
    """Per-grading dimensions and the ranks that produced them."""
    dims: dict
    space_dims: dict
    ranks: dict
    window: dict
    flags: dict


def cohomology_d(ctx, D=6):
    """Cohomology of (V, d) in gradings 0..D-1 by exact sparse ranks.

    d preserves tau = <m, deg_dual> - <deg, n> + |S|, so the complex is
    eliminated by ``linalg.Complex`` in pieces keyed (k, tau), the pivots
    of d_(k-1) pruning the columns of d_k."""
    if D < 1:
        raise TruncationTooSmall("cohomology_d needs D >= 1")
    pair, f, g = ctx.pair, ctx.f, ctx.g
    basis = v_basis(pair, "d", D - 1)
    vdims = {k: len(v) for k, v in basis.items()}
    pieces = {}
    for k in range(D):
        for e in basis[k]:
            pieces.setdefault((k, _tau_d(pair, e)), []).append(e)
    cx = Complex(lambda k, tau: pieces.get((k, tau), ()),
                 lambda e: d_column(pair, f, g, e),
                 lambda k, tau: (k - 1, tau) if k else None)
    ranks = dict.fromkeys(range(D), 0)
    dims = dict.fromkeys(range(D), 0)
    for k, tau in pieces:
        ranks[k] += len(cx.pivots(k, tau))
        dims[k] += cx.dim(k, tau)
    return CohomologyReport(dims=dims, space_dims=vdims, ranks=ranks,
                            window={"max_degree": D - 1}, flags={})


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
    # keyed (gv, cap): basis vectors of n-degree <= cap; d_hat raises the
    # n-degree by at most one, so the pivots of (gv-1, cap-1) lie there
    cx = Complex(lambda gv, cap: _dhat_piece(pair, gv, cap),
                 lambda e: dhat_column(pair, f, g, e),
                 lambda gv, cap: (gv - 1, cap - 1) if gv and cap else None)
    dims = {}
    stop_at = {}
    flags = {}
    space_dims = {}
    for gv in range(D + 1):
        prev = None
        stabilized = None
        for p in range(2, p_max + 1):
            cur = cx.dim(gv, p - 1)
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
        space_dims[gv] = len(cx.basis(gv, stop_at[gv] - 1))
    return CohomologyReport(dims=dims, space_dims=space_dims,
                            ranks={gv: len(cx.pivots(gv, stop_at[gv] - 1))
                                   for gv in range(D + 1)},
                            window={"max_hat_grading": D,
                                    "p_max": p_max,
                                    "stabilized_at": stop_at}, flags=flags)


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
