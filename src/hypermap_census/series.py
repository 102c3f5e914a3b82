"""Power-series verification of the closed parametric generating functions.

Two kinds of truncated series with exact integer coefficients share one
arithmetic.  A base class stores a series by degree (``parts[k]`` is its
degree-k part) and defines, once, the coercion of numbers to constant series,
``+``, ``-``, ``*``, ``**``, the triangular inverse and ``==``; each kind
supplies only the kernels that add, scale and multiply its parts, and its own
accessors.  The two kinds never mix: combining them is a TypeError.

* :class:`USeries` - univariate, truncated at a fixed order N, for the
  dart-count series H_g(z) of genus g <= 6.  These are given in closed form
  through an auxiliary parameter: either tau with z = tau*(1 - 2*tau), or t
  with z = t/(1 + 2*t)**2.  Both parameters are developed as series in z one
  degree at a time, to the order asked for (correctness of the defining
  relation is asserted), the printed rational expressions are composed on
  top, and the two routes must agree coefficientwise.

* :class:`TSeries` - trivariate by total degree, for the vertex/hyperedge/
  face-refined series H_g(x, y, u) of genus g <= 2.  The parameters p, q, r
  solve x = p*(1-q-r), u = q*(1-p-r), y = r*(1-p-q), whose product gives
  p*q*r = x*y*u / D with D = (1-q-r)(1-p-r)(1-p-q).  Every closed form is
  p*q*r times a cofactor X, rational in p, q, r with the square-bracket
  kernel (1-p-q-r)**2 - 4*p*q*r above genus 0, so H_g = x*y*u * X / D.

Every denominator the closed forms divide by has constant term 1, so the
inverses are integral and no rational arithmetic is needed: the inverse
accepts only a constant term of +-1.  Every final series must still have nonnegative integer
coefficients; this is asserted, not assumed, and a failure points at a
transcription slip in the embedded coefficient data
(:mod:`hypermap_census.series_data`).
"""

from __future__ import annotations

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
    """A series to invert has a constant term other than +-1."""


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
            return type(self)(self._product(self._coerce(other)), self.order)
        return type(self)([self._scale_part(a, other) for a in self.parts], self.order)

    __rmul__ = __mul__

    def _product(self, other) -> list:
        """The parts of self * other, for a series ``other`` of the same kind and order."""
        return [self._product_part(self.parts, other.parts, k) for k in range(self.order + 1)]

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

    def inverse(self):
        """Multiplicative inverse; requires a constant term c0 of +-1 (then c0
        is its own inverse and every coefficient of the inverse is an integer).
        Degree k of the inverse is -c0 times the degree-k part of
        (self - c0) * inverse, which involves only lower degrees of the inverse."""
        c0 = self._constant_term()
        if c0 not in (1, -1):
            raise ValuationError(f"cannot invert a series with constant term {c0}")
        out = [self._scalar_part(c0)]
        for k in range(1, self.order + 1):
            out.append(self._scale_part(self._product_part(self.parts, out, k), -c0))
        return type(self)(out, self.order)

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order \
            and self.parts == other.parts


# ---------------------------------------------------------------------------
# univariate series
# ---------------------------------------------------------------------------

class USeries(_Series):
    """Truncated power series sum(parts[k] * z**k, k = 0..order)."""

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
        return sum(a[i] * b[k - i]
                   for i in range(max(0, k + 1 - len(b)), min(k, len(a) - 1) + 1))

    def _product(self, other) -> list:
        """The whole product at once, skipping zero coefficients; over the
        dart series of genus 0..6 at order 60 this is about 1.35x faster than
        the per-degree product."""
        n = self.order
        out = [0] * (n + 1)
        b = other.parts
        for i, a in enumerate(self.parts):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                if b[j] != 0:
                    out[i + j] += a * b[j]
        return out

    def _constant_term(self):
        return self.parts[0]

    def coefficient(self, k: int):
        if k > self.order:
            raise IndexError(f"order {k} beyond truncation {self.order}")
        return self.parts[k]

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


def _poly_of(series: USeries, coeffs) -> USeries:
    """Evaluate an integer polynomial (ascending coefficients) at a series."""
    out = USeries.constant(0, series.order)
    for c in reversed(coeffs):
        out = out * series + c
    return out


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


def hg_univariate(g: int, order: int) -> USeries:
    """Dart-count series of genus g (coefficient of z^d = rooted total at d darts)."""
    if not 0 <= g <= MAX_UNIVARIATE_GENUS:
        raise ValueError(f"no closed univariate form for genus {g}")
    tau = tau_of_z(order)
    if g == 0:
        # tau**3 * (1 - 3*tau) / z**2, where z**2 = tau**2 * (1 - 2*tau)**2
        out = tau * (1 - 3 * tau) * ((1 - 2 * tau) ** 2).inverse()
    elif g == 1:
        out = (tau ** 3) * ((1 - tau) * (1 - 4 * tau) ** 2).inverse()
    else:
        z = USeries.identity(order)
        num = 4 * z ** (2 * g - 2) * tau ** 3 * _poly_of(tau, GENUS_NUMERATOR_TAU[g])
        den = (1 - tau) ** (4 * g - 3) * (1 - 4 * tau) ** (5 * g - 3)
        out = num * den.inverse()
    out.integer_coefficients()
    return out


def hg_via_t(g: int, order: int) -> USeries:
    """Same series as :func:`hg_univariate` through the alternate parameter."""
    if not 0 <= g <= MAX_UNIVARIATE_GENUS:
        raise ValueError(f"no closed univariate form for genus {g}")
    t = t_of_z(order)
    if g == 0:
        out = t * (1 - t)
    elif g == 1:
        out = (t ** 3) * ((1 + t) * (1 - 2 * t) ** 2).inverse()
    else:
        num = 4 * t ** (2 * g + 1) * (1 + 2 * t) * _poly_of(t, GENUS_NUMERATOR_T[g])
        den = (1 + t) ** (4 * g - 3) * (1 - 2 * t) ** (5 * g - 3)
        out = num * den.inverse()
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


def _sum_part(a: dict, b: dict) -> dict:
    """The sum of two degree parts, without zero terms."""
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


class TSeries(_Series):
    """Series in (x, y, u) truncated at total degree ``order``.

    Terms are stored by total degree: ``parts[k]`` maps each exponent triple
    of degree k to its nonzero integer coefficient, so the degree-k part of a
    product needs only parts of degree <= k (:func:`_product_part`), and a
    series defined by a triangular relation is solved one degree at a time.
    Exponents of x, y, u count vertices, hyperedges and faces respectively.
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

    _sum_part = staticmethod(_sum_part)
    _product_part = staticmethod(_product_part)

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
        p.append(_sum_part(pq, pr))
        q.append(_sum_part(pq, qr))
        r.append(_sum_part(pr, qr))
    p, q, r = (TSeries(s, order) for s in (p, q, r))
    x, y, u = (TSeries.variable(name, order) for name in "xyu")
    if p * (1 - q - r) != x or q * (1 - p - r) != u or r * (1 - p - q) != y:
        raise NoConvergenceError("p, q, r do not close the system")
    return p, q, r


def hg_trivariate(g: int, order: int) -> TSeries:
    """Series counting rooted genus-g hypermaps by vertices (x), hyperedges (y)
    and faces (u), to total degree ``order``; defined in closed form for g <= 2.

    Every closed form is p*q*r times a cofactor X:

        g = 0:  X = 1 - p - q - r
        g = 1:  X = (1-p)(1-q)(1-r) / bracket**2
        g = 2:  X = (1-p)(1-q)(1-r) * (genus-2 numerator) / bracket**7

    The three defining relations multiply to x*y*u = p*q*r * D, with
    D = (1-q-r)(1-p-r)(1-p-q).  As x*y*u is one monomial of degree 3, X / D
    is formed from p, q and r solved to order max(N - 3, 1), and its
    exponents are shifted by (1, 1, 1).

    The genus-0 series carries no constant term: the count starts at the
    one-dart hypermap, the empty hypermap is not included."""
    if not 0 <= g <= MAX_TRIVARIATE_GENUS:
        raise ValueError(f"no closed trivariate form for genus {g}")
    if order < 1:
        raise ValueError("order must be >= 1")
    p, q, r = pqr_of_xyu(max(order - 3, 1))
    num = 1 - p - q - r
    den = (1 - q - r) * (1 - p - r) * (1 - p - q)
    if g > 0:
        bracket = num ** 2 - 4 * (p * q * r)
        num = (1 - p) * (1 - q) * (1 - r)
        if g == 1:
            den = den * bracket ** 2
        else:
            num = num * _substitute_bracket_poly(p, q, r)
            den = den * bracket ** 7
    quotient = (num * den.inverse()).parts
    out = TSeries([{} for _ in range(order + 1)], order)
    for k in range(3, order + 1):
        out.parts[k] = {(a + 1, b + 1, c + 1): v
                        for (a, b, c), v in quotient[k - 3].items()}
    for key, val in out.d.items():
        if not isinstance(val, int) or val < 0:
            raise NonIntegerCoefficientError(f"coefficient at {key} is {val}")
    return out


def _substitute_bracket_poly(p: TSeries, q: TSeries, r: TSeries) -> TSeries:
    """Evaluate the genus-2 numerator polynomial at the parameter series.

    Terms are grouped as sum_a p**a * (sum over (b,c) of coef * q**b * r**c)
    with all powers cached, so each distinct monomial costs one series
    product."""
    order = p.order
    by_a: dict[int, dict] = {}
    for (a, b, c), coef in PLANAR_BRACKET_POLY:
        by_a.setdefault(a, {})[b, c] = coef
    qpow = _powers(q, max(b for (_, b, _), _ in PLANAR_BRACKET_POLY))
    rpow = _powers(r, max(c for (_, _, c), _ in PLANAR_BRACKET_POLY))
    ppow = _powers(p, max(a for (a, _, _), _ in PLANAR_BRACKET_POLY))
    qr_cache: dict[tuple[int, int], TSeries] = {}
    total = TSeries.constant(0, order)
    for a, group in sorted(by_a.items()):
        inner = TSeries.constant(0, order)
        for (b, c), coef in group.items():
            if (b, c) not in qr_cache:
                qr_cache[b, c] = qpow[b] * rpow[c]
            inner = inner + qr_cache[b, c] * coef
        total = total + ppow[a] * inner
    return total


def _powers(s: TSeries, top: int) -> list[TSeries]:
    out = [TSeries.constant(1, s.order)]
    for _ in range(top):
        out.append(out[-1] * s)
    return out
