"""Power-series verification of the closed parametric generating functions.

Two kinds of truncated series with exact integer coefficients share one
arithmetic.  A base class stores a series by degree (``parts[k]`` is its
degree-k part) and defines, once, the coercion of numbers to constant series,
``+``, ``-``, ``*``, ``**``, ``/`` and ``==``; each kind supplies only the
kernels that add, scale and multiply its parts, and its own accessors.  Each
kind has one product kernel, the degree-k part of a product, on which ``*``,
``**`` and ``/`` all run.  The two kinds never mix: combining them is a
TypeError.

* :class:`USeries` - univariate, truncated at a fixed order N, for the
  dart-count series H_g(z) of genus g <= 6.  These are given in closed form
  through an auxiliary parameter: either tau with z = tau*(1 - 2*tau), or t
  with z = t/(1 + 2*t)**2.  Both parameters are developed as series in z one
  degree at a time, to the order asked for (correctness of the defining
  relation is asserted).  Each closed form is data: integer polynomials A, B
  and a shift s with H_g = z**s * A(param) / B(param), built per genus from
  the embedded numerators and binomial expansions of the denominator factors,
  whose exponents 4g - 3 and 5g - 3 are one formula for every g >= 1 (the
  table is in :func:`hg_univariate` and :func:`hg_via_t`).  One walk
  over the powers of the parameter evaluates A and B together, and one
  series division gives the quotient (:func:`_rational_at`).  The two
  routes share no coefficient data and must agree coefficientwise.

* :class:`TSeries` - trivariate by total degree, for the vertex/hyperedge/
  face-refined series H_g(x, y, u) of genus g <= 2.  The parameters p, q, r
  solve x = p*(1-q-r), u = q*(1-p-r), y = r*(1-p-q), whose product gives
  p*q*r = x*y*u / D with D = (1-q-r)(1-p-r)(1-p-q).  Every closed form is
  p*q*r times a cofactor X, rational in p, q, r with the square-bracket
  kernel B = (1-p-q-r)**2 - 4*p*q*r to the power 5g - 3 above genus 0, so
  H_g = x*y*u * X / D.  X and D are symmetric in p, q, r and H_g in x, y, u,
  so H_g is built in the symmetric coordinates X1 = x+y+u, X2 = xy+yu+ux,
  X3 = xyu: the same class holds a series in X1, X2, X3 graded by weight
  a + 2b + 3c of X1**a X2**b X3**c, with E1 = p+q+r, E2 = pq+qr+rp,
  E3 = pqr solved in it, and only the finished series is expanded to x, y, u
  monomials.

Every denominator the closed forms divide by has constant term 1, so the
quotients are integral and no rational arithmetic is needed: ``/``, the one
division both kinds share, accepts only a divisor with constant term +-1.
Every final series must still have nonnegative integer coefficients; this
is asserted, not assumed, and a failure points at a transcription slip in
the embedded coefficient data (:mod:`hypermap_census.series_data`).
"""

from __future__ import annotations

from math import comb
from operator import add, mul

from .core import CensusError
from .series_data import GENUS_NUMERATOR_T, GENUS_NUMERATOR_TAU, PLANAR_BRACKET_POLY

MAX_UNIVARIATE_GENUS = 6
MAX_TRIVARIATE_GENUS = 2


class SeriesError(CensusError):
    pass


class NonIntegerCoefficientError(SeriesError):
    """A coefficient that must be a nonnegative integer is not."""


class ValuationError(SeriesError):
    """A divisor has a constant term other than +-1."""


class NoConvergenceError(SeriesError):
    """A parameter series does not satisfy its defining relation."""


class _Series:
    """Truncated power series stored by degree: ``parts[k]`` is the part of
    degree k, k = 0..order.

    The arithmetic is written once here; a subclass supplies the part kernels
    :meth:`_sum_part`, :meth:`_scale_part` and :meth:`_product_part` (the
    degree-k part of a product, a degree beyond the end of either list
    counting as zero), :meth:`_scalar_part` (the degree-0 part of a constant)
    and :meth:`_constant_term`.  Series of different kinds never mix: an
    operation on a USeries and a TSeries is a TypeError.
    """

    __slots__ = ("order", "parts")

    def __init__(self, parts: list, order: int):
        self.order = order
        self.parts = parts

    @classmethod
    def constant(cls, value, order: int):
        return cls([cls._scalar_part(value)] + [cls._scalar_part(0) for _ in range(order)],
                   order)

    def _coerce(self, other):
        """``other`` as a series of this kind and order: a number becomes a
        constant series, another order is a ValueError, another kind a TypeError."""
        if not isinstance(other, _Series):
            return self.constant(other, self.order)
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if other.order != self.order:
            raise ValueError("mixed truncation orders")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)([self._sum_part(a, b) for a, b in zip(self.parts, other.parts)],
                          self.order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + self._coerce(other) * -1

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, _Series):
            a, b = self.parts, self._coerce(other).parts
            return type(self)([self._product_part(a, b, k) for k in range(self.order + 1)],
                              self.order)
        return type(self)([self._scale_part(a, other) for a in self.parts], self.order)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self**k by repeated squaring."""
        result, base = self.constant(1, self.order), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        """Exact quotient; the divisor's constant term c0 must be +-1, its own
        inverse, so every coefficient of the quotient q is an integer.  Degree
        k of q is c0 * (self_k - sum(other_i * q_(k-i), i >= 1)): the degree-k
        product part with q built only to degree k - 1 leaves out i = 0."""
        other = self._coerce(other)
        c0 = other._constant_term()
        if c0 not in (1, -1):
            raise ValuationError(f"cannot divide by a series with constant term {c0}")
        q: list = []
        for part in self.parts:
            rest = self._product_part(other.parts, q, len(q))
            q.append(self._sum_part(self._scale_part(part, c0), self._scale_part(rest, -c0)))
        return type(self)(q, self.order)

    def inverse(self):
        """Multiplicative inverse: the constant series 1 divided by self."""
        return self.constant(1, self.order) / self

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order \
            and self.parts == other.parts


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------

class USeries(_Series):
    """Truncated power series sum(parts[k] * z**k, k = 0..order); its one
    product kernel, :meth:`_product_part`, serves ``*``, ``**``, ``/`` and
    :func:`_poly_product`."""

    __slots__ = ()

    def __init__(self, coeffs, order: int):
        coeffs = list(coeffs)[: order + 1]
        self.order = order
        self.parts = coeffs + [0] * (order + 1 - len(coeffs))

    @classmethod
    def identity(cls, order: int) -> "USeries":
        """The series z."""
        return cls([0, 1], order)

    @staticmethod
    def _scalar_part(value):
        return value

    _sum_part = staticmethod(add)
    _scale_part = staticmethod(mul)

    @staticmethod
    def _product_part(a: list, b: list, k: int):
        lo, hi = max(0, k + 1 - len(b)), min(k, len(a) - 1)
        return sum(map(mul, a[lo:hi + 1], reversed(b[k - hi:k + 1 - lo])))

    def _constant_term(self):
        return self.parts[0]

    def coefficient(self, k: int):
        """Coefficient of z**k; 0 for k < 0 (no terms of negative degree)."""
        if k > self.order:
            raise IndexError(f"order {k} beyond truncation {self.order}")
        return self.parts[k] if k >= 0 else 0

    def valuation(self) -> int:
        for i, a in enumerate(self.parts):
            if a != 0:
                return i
        return self.order + 1

    def integer_coefficients(self) -> list[int]:
        """Coefficients as nonnegative ints; error if any coefficient is not."""
        for i, a in enumerate(self.parts):
            if not isinstance(a, int) or a < 0:
                raise NonIntegerCoefficientError(f"coefficient of z^{i} is {a}")
        return list(self.parts)

    def __repr__(self):
        head = ", ".join(str(a) for a in self.parts[:8])
        return f"USeries([{head}{', ...' if self.order > 7 else ''}], order={self.order})"


def tau_of_z(order: int) -> USeries:
    """The series tau(z) with tau(0) = 0 solving tau - 2*tau**2 = z.

    Degree k of tau = z + 2*tau**2 involves only lower degrees of tau."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = [0, 1]
    for k in range(2, order + 1):
        c.append(2 * sum(c[i] * c[k - i] for i in range(1, k)))
    tau = USeries(c, order)
    if tau * (1 - 2 * tau) != USeries.identity(order):
        raise NoConvergenceError("tau series does not close the defining relation")
    return tau


def t_of_z(order: int) -> USeries:
    """The series t(z) with t(0) = 0 solving t = z*(1 + 2*t)**2.

    Degree k of t = z*(1 + 4*t + 4*t**2) involves only lower degrees of t."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = [0, 1]
    for k in range(2, order + 1):
        c.append(4 * c[k - 1] + 4 * sum(c[i] * c[k - 1 - i] for i in range(1, k - 1)))
    t = USeries(c, order)
    if t != USeries.identity(order) * ((1 + 2 * t) ** 2):
        raise NoConvergenceError("t series does not close the defining relation")
    return t


def _binomial(a: int, n: int) -> list[int]:
    """Ascending coefficients of (1 + a*x)**n."""
    return [comb(n, k) * a ** k for k in range(n + 1)]


def _poly_product(a: list, b: list) -> list:
    """Ascending coefficients of the product of two integer polynomials."""
    return [USeries._product_part(a, b, k) for k in range(len(a) + len(b) - 1)]


def _rational_at(param: USeries, num: list, den: list, shift: int) -> USeries:
    """z**shift * num(param) / den(param), for integer polynomials ``num`` and
    ``den`` (ascending coefficients) and a parameter series with no constant
    term, to the parameter's order N.

    param**k has valuation k, so only the powers k <= N - shift reach the
    result.  One walk forms each power from the last, from degree k on, and
    adds it into num(param) and den(param), both to order max(N - shift, 0);
    their quotient by ``/`` (which needs den[0] = +-1, even when the shift
    passes N) is then shifted up by z**shift."""
    n = max(param.order - shift, 0)
    top = min(max(len(num), len(den)) - 1, n)
    num = num + [0] * (top + 1 - len(num))
    den = den + [0] * (top + 1 - len(den))
    a = [num[0]] + [0] * n
    b = [den[0]] + [0] * n
    power = [1] + [0] * n
    back = param.parts[n:0:-1]           # back[n - m] = param[m], m = 1..n
    for k in range(1, top + 1):
        # degree j of param**k pairs param**(k-1) at degrees k-1..j-1
        # with param at degrees j-k+1 down to 1
        power[k - 1:] = [0] + [sum(map(mul, power[k - 1:j], back[n - j + k - 1:]))
                               for j in range(k, n + 1)]
        if num[k]:
            a[k:] = [v + num[k] * w for v, w in zip(a[k:], power[k:])]
        if den[k]:
            b[k:] = [v + den[k] * w for v, w in zip(b[k:], power[k:])]
    return USeries([0] * shift + (USeries(a, n) / USeries(b, n)).parts, param.order)


def _tau_form(g: int) -> tuple[list, list, int]:
    """(A, B, s) with H_g = z**s * A(tau) / B(tau)."""
    if g == 0:
        return [0, 1, -3], _binomial(-2, 2), 0
    num = [0, 0, 0, 1] if g == 1 else [0, 0, 0] + [4 * c for c in GENUS_NUMERATOR_TAU[g]]
    return num, _poly_product(_binomial(-1, 4 * g - 3), _binomial(-4, 5 * g - 3)), 2 * g - 2


def _t_form(g: int) -> tuple[list, list, int]:
    """(A, B, s) with H_g = z**s * A(t) / B(t); s is always 0."""
    if g == 0:
        return [0, 1, -1], [1], 0
    num = [0, 0, 0, 1] if g == 1 else \
        [0] * (2 * g + 1) + _poly_product([4, 8], GENUS_NUMERATOR_T[g])
    return num, _poly_product(_binomial(1, 4 * g - 3), _binomial(-2, 5 * g - 3)), 0


def hg_univariate(g: int, order: int) -> USeries:
    """Dart-count series of genus g (coefficient of z^d = rooted total at d
    darts), as z**s * A(tau) / B(tau) with z = tau*(1 - 2*tau):

        g = 0:       s = 0,       A = tau*(1 - 3*tau),        B = (1 - 2*tau)**2
        g = 1..6:    s = 2g - 2,  A = 4*tau**3 * N_g(tau),
                                  B = (1 - tau)**(4g-3) * (1 - 4*tau)**(5g-3)

    with N_g = ``GENUS_NUMERATOR_TAU[g]`` for g >= 2 and A = tau**3 at g = 1
    (:func:`_rational_at`)."""
    if not 0 <= g <= MAX_UNIVARIATE_GENUS:
        raise ValueError(f"no closed univariate form for genus {g}")
    out = _rational_at(tau_of_z(order), *_tau_form(g))
    out.integer_coefficients()
    return out


def hg_via_t(g: int, order: int) -> USeries:
    """Same series as :func:`hg_univariate` through the alternate parameter t
    with z = t/(1 + 2*t)**2, as A(t) / B(t):

        g = 0:       A = t*(1 - t),                          B = 1
        g = 1..6:    A = 4*t**(2g+1) * (1 + 2*t) * M_g(t),
                     B = (1 + t)**(4g-3) * (1 - 2*t)**(5g-3)

    with M_g = ``GENUS_NUMERATOR_T[g]`` for g >= 2 and A = t**3 at g = 1; no
    data is shared with the tau route."""
    if not 0 <= g <= MAX_UNIVARIATE_GENUS:
        raise ValueError(f"no closed univariate form for genus {g}")
    out = _rational_at(t_of_z(order), *_t_form(g))
    out.integer_coefficients()
    return out


# ---------------------------------------------------------------------------
# trivariate series
# ---------------------------------------------------------------------------

def _product_part(a: list, b: list, k: int) -> dict:
    """The degree-k part of the product of two series given by their degree
    parts; a degree beyond the end of either list counts as zero."""
    out: dict = {}
    for i in range(max(0, k + 1 - len(b)), min(k, len(a) - 1) + 1):
        bj = b[k - i]
        for (a1, b1, c1), v1 in a[i].items():
            for (a2, b2, c2), v2 in bj.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0) + v1 * v2
    return {key: v for key, v in out.items() if v}


def _linear_part(*terms) -> dict:
    """sum(c * part for c, part in terms) for degree parts, without zero terms."""
    out: dict = {}
    for c, part in terms:
        for key, v in part.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


class TSeries(_Series):
    """Series in (x, y, u) truncated at total degree ``order``.

    Terms are stored by total degree: ``parts[k]`` maps each exponent triple
    of degree k to its nonzero integer coefficient, so the degree-k part of a
    product needs only parts of degree <= k (:func:`_product_part`), and a
    series defined by a triangular relation is solved one degree at a time.
    Exponents of x, y, u count vertices, hyperedges and faces respectively.

    The arithmetic needs only that degrees add under multiplication, so
    :func:`hg_trivariate` also uses this class for series in X1, X2, X3
    graded by weight a + 2b + 3c (``parts[k]`` then holds the exponent
    triples of weight k).  Such a series stays internal to this module:
    :meth:`coefficient` and :attr:`d` read x, y, u exponents, and every
    series returned is in x, y, u.
    """

    __slots__ = ()

    @classmethod
    def variable(cls, name: str, order: int) -> "TSeries":
        idx = {"x": 0, "y": 1, "u": 2}[name]
        out = cls.constant(0, order)
        out.parts[1][tuple(1 if i == idx else 0 for i in range(3))] = 1
        return out

    @staticmethod
    def _scalar_part(value) -> dict:
        return {(0, 0, 0): value} if value else {}

    _product_part = staticmethod(_product_part)

    @staticmethod
    def _sum_part(a: dict, b: dict) -> dict:
        return _linear_part((1, a), (1, b))

    @staticmethod
    def _scale_part(part: dict, value) -> dict:
        return {key: v * value for key, v in part.items()} if value else {}

    def _constant_term(self):
        return self.parts[0].get((0, 0, 0), 0)

    @property
    def d(self) -> dict:
        """All terms as one {(vertices, hyperedges, faces): coefficient} dict."""
        return {key: v for part in self.parts for key, v in part.items()}

    def coefficient(self, vertices: int, hyperedges: int, faces: int):
        k = vertices + hyperedges + faces
        if k > self.order:
            raise IndexError("total degree beyond truncation")
        return self.parts[k].get((vertices, hyperedges, faces), 0)


def pqr_of_xyu(order: int) -> tuple[TSeries, TSeries, TSeries]:
    """Series p, q, r (zero constant term) solving the parametric system

        x = p*(1-q-r),   u = q*(1-p-r),   y = r*(1-p-q)

    to total degree ``order``, through the equivalent division-free form
    p = x + p*q + p*r etc.: with no constant terms, degree k of each product
    involves only lower degrees, so the system is solved one degree at a time."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p, q, r = [{}, {(1, 0, 0): 1}], [{}, {(0, 0, 1): 1}], [{}, {(0, 1, 0): 1}]
    for k in range(2, order + 1):
        pq, pr, qr = (_product_part(a, b, k) for a, b in ((p, q), (p, r), (q, r)))
        p.append(_linear_part((1, pq), (1, pr)))
        q.append(_linear_part((1, pq), (1, qr)))
        r.append(_linear_part((1, pr), (1, qr)))
    p, q, r = (TSeries(s, order) for s in (p, q, r))
    x, y, u = (TSeries.variable(name, order) for name in "xyu")
    if p * (1 - q - r) != x or q * (1 - p - r) != u or r * (1 - p - q) != y:
        raise NoConvergenceError("p, q, r do not close the system")
    return p, q, r


def _elementary_of_symmetric(order: int) -> tuple[TSeries, TSeries, TSeries]:
    """E1 = p+q+r, E2 = pq+qr+rp and E3 = pqr as weight-graded series in
    X1 = x+y+u, X2 = xy+yu+ux and X3 = xyu, to weight ``order``: the key
    (a, b, c) stands for X1**a X2**b X3**c, of weight a + 2b + 3c.

    Summed over the three defining relations of :func:`pqr_of_xyu`,

        X1 = E1 - 2*E2
        X2 = (1-E1)(E2 - 3*E3) + E2**2 - 2*E1*E3
        X3 = E3 * D,   D = (1-E1)**2 + (1-E1)*E2 + E3.

    E1, E2 and E3 start at weights 1, 2 and 3, so in the division-free forms
    E3 = X3 + E3*(1 - D), E2 = X2 + 3*E3 + E1*E2 - E1*E3 - E2**2 and
    E1 = X1 + 2*E2 the weight-k part of E3, then of E2, then of E1 needs only
    lower weights and the weight-k parts already found.  The three relations
    are checked on the result."""
    if order < 1:
        raise ValueError("order must be >= 1")
    x1, x2, x3 = (TSeries([{key: 1} if k == w else {} for k in range(order + 1)], order)
                  for w, key in ((1, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))))
    # w = 1 - D = 2*E1 - E1**2 - E2 + E1*E2 - E3, kept alongside
    e1, e2, e3, w = [{}], [{}], [{}], [{}]
    for k in range(1, order + 1):
        e1e1, e1e2 = _product_part(e1, e1, k), _product_part(e1, e2, k)
        e3.append(_linear_part((1, x3.parts[k]), (1, _product_part(e3, w, k))))
        e2.append(_linear_part((1, x2.parts[k]), (3, e3[k]), (1, e1e2),
                               (-1, _product_part(e1, e3, k)), (-1, _product_part(e2, e2, k))))
        e1.append(_linear_part((1, x1.parts[k]), (2, e2[k])))
        w.append(_linear_part((2, e1[k]), (-1, e1e1), (-1, e2[k]), (1, e1e2), (-1, e3[k])))
    e1, e2, e3 = (TSeries(s, order) for s in (e1, e2, e3))
    d = (1 - e1) ** 2 + (1 - e1) * e2 + e3
    if e1 - 2 * e2 != x1 or e3 * d != x3 \
            or (1 - e1) * (e2 - 3 * e3) + e2 ** 2 - 2 * e1 * e3 != x2:
        raise NoConvergenceError("E1, E2, E3 do not close the symmetric system")
    return e1, e2, e3


def _expand_symmetric(series: TSeries) -> TSeries:
    """A weight-graded series in X1, X2, X3 as a series in x, y, u.

    With S = x + y and T = x*y, X1 = S + u, X2 = T + u*S and X3 = u*T, so
    X1**a X2**b X3**c = u**c T**c (S + u)**a (T + u*S)**b.  One binomial pass
    expands (T + u*S)**b, one (S + u)**a, and one S**s = (x + y)**s; each
    collects equal terms before the next.  Weight k becomes total degree k."""
    parts = []
    for part in series.parts:
        pass1: dict = {}
        for (a, b, c), v in part.items():
            for j in range(b + 1):
                key = (a, j, b - j + c, j + c)           # X1**a S**j T**t u**e
                pass1[key] = pass1.get(key, 0) + v * comb(b, j)
        pass2: dict = {}
        for (a, s, t, e), v in pass1.items():
            for i in range(a + 1):
                key = (s + a - i, t, e + i)              # S**s T**t u**e
                pass2[key] = pass2.get(key, 0) + v * comb(a, i)
        out: dict = {}
        for (s, t, e), v in pass2.items():
            for i in range(s + 1):
                key = (i + t, s - i + t, e)              # x**i y**(s-i) (x*y)**t u**e
                out[key] = out.get(key, 0) + v * comb(s, i)
        parts.append({key: v for key, v in out.items() if v})
    return TSeries(parts, series.order)


def _elementary_form(terms) -> dict:
    """A symmetric polynomial sum(coef * p**a * q**b * r**c), given as
    ((a, b, c), coef) pairs, in E1, E2, E3: {(i, j, k): coef} for
    coef * E1**i * E2**j * E3**k.

    The lexicographically largest term p**a q**b r**c has a >= b >= c, and it
    is the largest term of E1**(a-b) E2**(b-c) E3**c, so subtracting coef
    times that product removes it and adds only smaller terms.  A largest
    term with a < b or b < c shows the polynomial is not symmetric."""
    e1 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    e2 = {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    powers = {(0, 0): {(0, 0, 0): 1}}

    def power(i: int, j: int) -> dict:
        """E1**i E2**j in p, q, r (a homogeneous polynomial is a one-part series)."""
        if (i, j) not in powers:
            prev, factor = ((i - 1, j), e1) if i else ((0, j - 1), e2)
            powers[i, j] = _product_part([power(*prev)], [factor], 0)
        return powers[i, j]

    poly = dict(terms)
    out = {}
    while poly:
        (a, b, c), coef = max(poly.items())
        if not a >= b >= c:
            raise ValueError(f"polynomial is not symmetric: leading term {(a, b, c)}")
        out[a - b, b - c, c] = coef
        for (x, y, z), v in power(a - b, b - c).items():
            key = (x + c, y + c, z + c)
            rest = poly.get(key, 0) - coef * v
            if rest:
                poly[key] = rest
            else:
                poly.pop(key, None)
    return out


def _evaluate(poly: dict, e1: TSeries, e2: TSeries, e3: TSeries) -> TSeries:
    """sum(coef * e1**i * e2**j * e3**k) for poly {(i, j, k): coef}.

    The powers of e1 are formed once, so each coefficient of e2**j e3**k is a
    linear combination of them; Horner's rule in e2, then in e3, multiplies
    those."""
    powers = [TSeries.constant(1, e1.order)]
    for _ in range(max(i for i, _, _ in poly)):
        powers.append(powers[-1] * e1)
    by_k: dict = {}
    for (i, j, k), coef in poly.items():
        group = by_k.setdefault(k, {})
        group[j] = group.get(j, 0) + coef * powers[i]

    def horner(coeffs: dict, s: TSeries):
        out = coeffs[max(coeffs)]
        for n in range(max(coeffs) - 1, -1, -1):
            out = out * s + coeffs.get(n, 0)
        return out

    return horner({k: horner(group, e2) for k, group in by_k.items()}, e3)


def hg_trivariate(g: int, order: int) -> TSeries:
    """Series counting rooted genus-g hypermaps by vertices (x), hyperedges (y)
    and faces (u), to total degree ``order``; defined in closed form for g <= 2.

    Every closed form is p*q*r times a cofactor X, symmetric in p, q, r and so
    a polynomial or rational function in E1 = p+q+r, E2 = pq+qr+rp, E3 = pqr:

        g = 0:  X = 1 - E1
        g = 1, 2:  X = (1 - E1 + E2 - E3) * P_g / B**(5g-3)

    with the square-bracket kernel B = (1-E1)**2 - 4*E3, P_1 = 1 and P_2 the
    genus-2 numerator ``PLANAR_BRACKET_POLY`` reduced to E1, E2, E3 at each
    call (:func:`_elementary_form`).  As p*q*r = x*y*u / D, the series is
    X3 * X / D, with X3 = x*y*u and D as in :func:`_elementary_of_symmetric`.
    It is formed as a weight-graded series in X1, X2, X3, with E1, E2, E3
    solved to weight max(N - 3, 1) and X / D as one series division (the
    numerator of X by D times the denominator of X), then expanded to x, y, u
    monomials (:func:`_expand_symmetric`).  A weight-graded series stays
    internal: :meth:`TSeries.coefficient` and :attr:`TSeries.d` read x, y, u
    exponents.

    The genus-0 series carries no constant term: the count starts at the
    one-dart hypermap, the empty hypermap is not included."""
    if not 0 <= g <= MAX_TRIVARIATE_GENUS:
        raise ValueError(f"no closed trivariate form for genus {g}")
    if order < 1:
        raise ValueError("order must be >= 1")
    e1, e2, e3 = _elementary_of_symmetric(max(order - 3, 1))
    square = (1 - e1) ** 2
    num = 1 - e1
    den = square + (1 - e1) * e2 + e3
    if g > 0:
        num = 1 - e1 + e2 - e3
        if g == 2:
            num = num * _evaluate(_elementary_form(PLANAR_BRACKET_POLY), e1, e2, e3)
        den = den * (square - 4 * e3) ** (5 * g - 3)
    quotient = (num / den).parts
    shifted = [{}, {}, {}] + [{(a, b, c + 1): v for (a, b, c), v in part.items()}
                              for part in quotient]
    out = _expand_symmetric(TSeries(shifted[:order + 1], order))
    for key, val in out.d.items():
        if not isinstance(val, int) or val < 0:
            raise NonIntegerCoefficientError(f"coefficient at {key} is {val}")
    return out
