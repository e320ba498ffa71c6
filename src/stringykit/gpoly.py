"""Stanley g- and h-polynomials of Eulerian intervals, and the graded
dimensions of combinatorial intersection cohomology they encode.

The recursion is the mutual h/g one: on an interval of rank d+1,
h(t) = sum over proper lower elements x of g([bottom,x]) * (t-1)^(d-rho(x))
and g keeps the increments of the lower half of h.  Rank is cone
dimension throughout, so one exponent step is one grading unit.
"""

from dataclasses import dataclass

from .errors import NotEulerian
from .lattice import interval_is_eulerian
from .linalg import vec_add


class IntPolynomial:
    """Integer polynomial as a finitely supported exponent -> coeff map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        return IntPolynomial(vec_add(self.coeffs, other.coeffs))

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntPolynomial(out)

    def degree(self):
        return max(self.coeffs, default=-1)

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("%st" % ("" if c == 1 else c))
            else:
                terms.append("%st^%d" % ("" if c == 1 else c, e))
        return " + ".join(terms)


_T_MINUS_1 = IntPolynomial({1: 1, 0: -1})


def _t_minus_1_power(k):
    p = IntPolynomial.one()
    for _ in range(k):
        p = p * _T_MINUS_1
    return p


def g_polynomial(poset, bottom, top):
    """Stanley g-polynomial of the interval [bottom, top].

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
        g = IntPolynomial.one()
    else:
        h = _h_sum(poset, bottom, top, memo)
        # Dehn-Sommerville h_i = h_{d-i} holds on Eulerian intervals
        if any(h[i] != h[d - i] for i in range(d + 1)):
            raise NotEulerian("h-vector is not palindromic")
        out = {0: h[0]}
        for i in range(1, d // 2 + 1):
            out[i] = h[i] - h[i - 1]
        g = IntPolynomial(out)
    memo[top.key()] = g
    return g


def h_polynomial(poset, bottom, top):
    """The h-polynomial of the interval (exposed for tests and reports)."""
    d = top.dim - bottom.dim - 1
    if d < 0:
        return IntPolynomial.one()
    if not interval_is_eulerian(poset, bottom, top):
        raise NotEulerian("interval fails the Eulerian test")
    return _h_sum(poset, bottom, top, {})


def _h_sum(poset, bottom, top, memo):
    """h of [bottom, top], of rank d+1: the sum over x < top of
    g([bottom, x]) * (t-1)^(d-rho(x)), with g memoized as _g_recursion."""
    d = top.dim - bottom.dim - 1
    h = IntPolynomial()
    for x in poset.interval(bottom, top):
        if x != top:
            h = h + _g_recursion(poset, bottom, x, memo) * \
                _t_minus_1_power(d - (x.dim - bottom.dim))
    return h


@dataclass(frozen=True)
class IHDims:
    """Graded dimensions of IH(theta) and of IH(theta, boundary)."""
    absolute: tuple   # sorted ((degree, dim), ...)
    relative: tuple

    def absolute_dict(self):
        return dict(self.absolute)

    def relative_dict(self):
        return dict(self.relative)


def ih_dims(poset, face):
    """Absolute dims from the g-polynomial of [{0}, face]; relative by
    the duality rule relative_k = absolute_{dim - k}."""
    g = g_polynomial(poset, poset.zero, face)
    absolute = tuple(sorted(g.coeffs.items()))
    relative = tuple(sorted((face.dim - e, c) for e, c in g.coeffs.items()))
    return IHDims(absolute, relative)
