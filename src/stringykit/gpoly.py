"""Stanley g-polynomials of Eulerian intervals: the coefficients of
g([0, theta]) are the graded dimensions of the combinatorial
intersection cohomology IH(theta).

A polynomial is a {degree: coefficient} dict with no zero values.  The
recursion is the mutual h/g one: on an interval of rank d+1,
h(t) = sum over proper lower elements x of g([bottom,x]) * (t-1)^(d-rho(x))
and g keeps the increments of the lower half of h.  Rank is cone
dimension throughout, so one exponent step is one grading unit.
"""

from math import comb

from .errors import NotEulerian
from .lattice import interval_is_eulerian


def g_polynomial(poset, bottom, top):
    """Stanley g-polynomial of the interval [bottom, top], as a
    {degree: coefficient} dict.  The coefficients of g([0, theta]) are
    the graded dims of IH(theta).

    Raises NotEulerian if any subinterval fails the even/odd count test.
    """
    if not poset.leq(bottom, top):
        raise ValueError("not an interval: bottom is not below top")
    if not interval_is_eulerian(poset, bottom, top):
        raise NotEulerian("interval fails the Eulerian test")
    return _g_recursion(poset, bottom, top, {})


def _g_recursion(poset, bottom, top, memo):
    """g of [bottom, top]; memo holds g of [bottom, x] keyed by x.key()
    for one call tree, so nothing outlives the poset it came from."""
    cached = memo.get(top.key())
    if cached is not None:
        return cached
    d = top.dim - bottom.dim - 1
    if d < 0:
        g = {0: 1}
    else:
        h = _h_sum(poset, bottom, top, memo)
        # Dehn-Sommerville h_i = h_{d-i} holds on Eulerian intervals
        if any(h.get(i, 0) != h.get(d - i, 0) for i in range(d + 1)):
            raise NotEulerian("h-vector is not palindromic")
        g = {i: h.get(i, 0) - h.get(i - 1, 0) for i in range(d // 2 + 1)}
        g = {i: c for i, c in g.items() if c}
    memo[top.key()] = g
    return g


def _h_sum(poset, bottom, top, memo):
    """h of [bottom, top], of rank d+1: the sum over x < top of
    g([bottom, x]) * (t-1)^(d-rho(x)), with g memoized as _g_recursion.
    (t-1)^k has the coefficient comb(k, j) (-1)^(k-j) at t^j."""
    d = top.dim - bottom.dim - 1
    h = {}
    for x in poset.interval(bottom, top):
        if x != top:
            k = d - (x.dim - bottom.dim)
            for e, c in _g_recursion(poset, bottom, x, memo).items():
                for j in range(k + 1):
                    h[e + j] = h.get(e + j, 0) + \
                        c * comb(k, j) * (-1) ** (k - j)
    return {e: c for e, c in h.items() if c}
