"""The double Koszul complex on C[(K + K_dual)_0] tensor Lambda* N and
its two differentials, with the decomposition oracles for both.

Basis elements are triples (m, n, S): lattice points with <m, n> = 0 and
an ascending wedge subset of the standard basis of N.  The plain
differential d is graded by <m, deg_dual> + <deg, n>; the deformed one
d_hat by 2 <m, deg_dual> + |S|, whose graded pieces are finite only
after capping the n-degree.

Both complexes of the package have the form X tensor Lambda* N with

    d = sum_i (iota_i (x) A_i  +  eps_i ^ (x) B_i),

iota_i the contraction by the i-th coordinate and eps_i ^ the wedge with
the i-th basis vector of N.  Here X = C[(K + K_dual)_0], A_i multiplies
by sum_m f(m) m_i [m] and B_i by sum_n g(n) n_i [n]; d_hat adds to B_i
the element's own n_i.  In ``sheaves`` X = W, A_i is the side-0 action
of n_i and B_i the side-1 action of m_i.  So a column of (x, S) spreads
the images of x, built once per x, over the slots of S (``_slots``).

For d_hat cohomology the quotient complexes V/S_p alone stabilize to a
wrong answer (formal exponential cocycles survive every cap), so the
computed invariant is: kernel of the EXACT differential among vectors
supported below the cap, modulo exact boundaries of vectors supported
one step lower.  Stabilization over consecutive caps plus the
R1/R1-hat assembly oracle certify the result.

Both cohomologies are eliminated by ``linalg.Complex``, which prunes the
columns of each piece by the pivots of the piece before it.  The column
builder ``_columns`` reads an element's products from per-point tables,
one per m and one per n, built once per cohomology.

The job-level entry points take one ``jacobian.Context``, whose f and g
were certified when it was made; the assemblies read R1 and R1-hat from
it (``Context.r1``, ``Context.r1_hat``).  The complex primitives
(``v_basis`` and ``_columns``) take explicit data and certify nothing.
A cohomology enumerates each level set of the two top faces once
(``_levels``): the pieces of d (``v_basis``) and of d-hat
(``_dhat_piece``) are read off those levels.
The A-side cohomology is ``cohomology_dhat`` of the swapped context
(``Context.swap``): one differential, one sign convention.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import TruncationTooSmall
from .lattice import dot, dual_face, padd, points_at_degree
from .linalg import Complex


def _levels(pair):
    """Readers k -> the points of degree k on the top faces of K (the m)
    and of K_dual (the n); each level is enumerated on its first read."""
    return tuple(lru_cache(maxsize=None)(
        lambda k, top=poset.top, lam=lam: points_at_degree(top, k, lam))
        for poset, lam in ((pair.poset(), pair.deg_dual),
                           (pair.dual_poset(), pair.deg)))


def _elements(ms, ns, wedges):
    """The (m, n, S) over m in ms, n in ns with <m, n> = 0, S in wedges."""
    return [(m, n, S) for m in ms for n in ns if dot(m, n) == 0
            for S in wedges]


def v_basis(pair, bound):
    """Graded pieces of the plain complex, each sorted: {k: [(m, n, S),
    ...]} for k = <m, deg_dual> + <deg, n> up to bound."""
    r = pair.rank
    wedges = [S for ell in range(r + 1) for S in combinations(range(r), ell)]
    m_at, n_at = _levels(pair)
    return {k: sorted(e for a in range(k + 1)
                      for e in _elements(m_at(a), n_at(k - a), wedges))
            for k in range(bound + 1)}


def _dhat_piece(levels, r, gv, n_cap):
    """The d-hat grading gv = 2 <m, deg_dual> + |S| with n-degree
    <= n_cap, sorted, read off the level readers of ``_levels``."""
    m_at, n_at = levels
    ns = [n for b in range(n_cap + 1) for n in n_at(b)]
    return sorted(e for a in range(gv // 2 + 1) if gv - 2 * a <= r
                  for e in _elements(m_at(a), ns,
                                     list(combinations(range(r), gv - 2 * a))))


@lru_cache(maxsize=None)
def _slots(S, r):
    """The signed index slots of the wedge monomial S in rank r: its
    contraction slots (sign, j, S minus j) over j in S, and its wedge
    slots (sign, j, sorted S plus j) over the other j < r."""
    contract = tuple(((-1) ** pos, j, S[:pos] + S[pos + 1:])
                     for pos, j in enumerate(S))
    wedge = tuple(((-1) ** sum(1 for i in S if i < j), j,
                   tuple(sorted(S + (j,))))
                  for j in range(r) if j not in S)
    return contract, wedge


def _columns(f, g, hat=False):
    """d of one basis element at a time, d-hat when hat: the form
    sum_i (iota_i (x) A_i + eps_i ^ (x) B_i) of the module docstring.

    The products of an element's (m1, n1) with the points of f and g are
    read from per-point tables, each built once per builder and spread
    over the element's wedge S by the contraction and wedge signs: per m1
    the terms (m, f(m), m + m1) and the g-points n with <m1, n> = 0, per
    n1 the terms (n, g(n), n + n1) and the f-points m with <m, n1> = 0.
    A product violating <m + m1, n1> = 0 is zero by the quotient relation,
    and for an element <m + m1, n1> = <m, n1>, so the n1 table says which
    f-terms survive; likewise the m1 table for the g-terms.
    """
    fpts = [(m, f(m)) for m in f.domain() if f(m)]
    gpts = [(n, g(n)) for n in g.domain() if g(n)]

    @lru_cache(maxsize=None)
    def m_table(m1):
        return ([(m, fm, padd(m, m1)) for m, fm in fpts],
                [i for i, (n, _) in enumerate(gpts) if not dot(m1, n)])

    @lru_cache(maxsize=None)
    def n_table(n1):
        return ([(n, gn, padd(n, n1)) for n, gn in gpts],
                [i for i, (m, _) in enumerate(fpts) if not dot(m, n1)])

    def column(elt):
        m1, n1, S = elt
        fterms, g_orth = m_table(m1)
        gterms, f_orth = n_table(n1)
        contract, wedge = _slots(S, len(m1))
        # the degree-one points are nonzero, so no two terms share a key
        col = {}
        for i in f_orth:
            m, fm, m2 = fterms[i]
            for sign, j, S2 in contract:
                if m[j]:
                    col[(m2, n1, S2)] = sign * m[j] * fm
        for i in g_orth:
            n, gn, n2 = gterms[i]
            for sign, j, S2 in wedge:
                if n[j]:
                    col[(m1, n2, S2)] = sign * n[j] * gn
        if hat:
            for sign, j, S2 in wedge:
                if n1[j]:
                    col[(m1, n1, S2)] = sign * n1[j]
        return col
    return column


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
    basis = v_basis(pair, D - 1)
    vdims = {k: len(v) for k, v in basis.items()}
    pieces = {}
    for k in range(D):
        for e in basis[k]:
            pieces.setdefault((k, _tau_d(pair, e)), []).append(e)
    cx = Complex(lambda k, tau: pieces.get((k, tau), ()), _columns(f, g),
                 (1, 0))
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
        rf = ctx.r1(theta, ctx.f)
        rg = ctx.r1(sigma, ctx.g)
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
    levels = _levels(pair)
    # keyed (gv, cap): basis vectors of n-degree <= cap; d_hat raises the
    # n-degree by at most one, so it maps (gv, cap) into (gv+1, cap+1)
    cx = Complex(lambda gv, cap: _dhat_piece(levels, pair.rank, gv, cap),
                 _columns(f, g, hat=True), (1, 1))
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


def hb_assemble(ctx):
    """Assembly of the deformed cohomology from faces: each graded piece
    R1(f, theta)_i tensor R1hat(g, theta*) lands in grading
    2 i + dim theta*.  R1-hat is read only where R1(f, theta) != 0."""
    def summand(theta, sigma):
        rf = ctx.r1(theta, ctx.f)
        if not rf:
            return {}
        hat_total = sum(ctx.r1_hat(sigma, ctx.g).values())
        return {2 * i + sigma.dim: di * hat_total
                for i, di in rf.items() if hat_total}
    return _face_sum(ctx, summand)
