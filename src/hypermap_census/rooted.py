"""Primary rooted-hypermap engine: a dart-count recurrence on homogeneous polynomials.

For each genus g and dart count d the engine fills a homogeneous polynomial
P(g,d) in three formal variables whose coefficient at the exponent triple
(f, b, w) is the number of rooted hypermaps of genus g with d darts, f faces,
b hyperedges and w vertices.  The genus relation forces every triple of a
nonzero term to sum to d + 2 - 2g, so internally only (f, b) is keyed and the
vertex exponent is derived.

The fill walks d upward.  Writing P[g,d] for the polynomial and using the
shorthand s1 = t + u + v, s2 = 2(tu + tv + uv) - (t^2 + u^2 + v^2):

    (d+1) * P[g,d] = (2d-1) * s1 * P[g,d-1]
                   + (d-2) * s2 * P[g,d-2]
                   + (d-1)^2 * (d-2) * P[g-1,d-2]
                   + sum over i+i'=g, j+j'=d-2 (j,j'>=1) of
                         (4+6j) * j' * P[i,j] * P[i',j']

with P[0,1] = tuv and P[g,d] = 0 for g < 0 or d < 1.  The subtracted square
terms in s2 make intermediate coefficients signed; the combined right-hand
side must come out nonnegative and exactly divisible by d+1, and both facts
are asserted on every step so a transcription slip cannot survive silently.

Every P[g,d] is symmetric under permuting (f, b, w): the base term tuv and
the factors s1 and s2 are symmetric, and sums and products of symmetric
polynomials are symmetric.  So the fill computes the right-hand side only at
canonical keys f >= b >= w; with w = deg - f - b the test b >= w reads
f + 2b >= deg.

Each of the four terms is a coefficient times a product of two polynomials
(s1, s2 and 1 are polynomials in the same (f, b)-keyed format), so the fill
lists (coefficient, p1, p2) terms and one kernel, :func:`_add_product`,
multiplies them and holds the only canonical-key test.  The convolution lists
each unordered factor pair {(i, j), (g-i, d-2-j)} once: the two orders
multiply the same polynomials, so their weights merge into
(4+6j) * j' + (4+6j') * j = 4(d-2) + 12 * j * j', while a pair equal to its
mirror keeps (4+6j) * j'.

:meth:`RootedCensus._store` checks each canonical value (nonnegative, exactly
divisible by d+1, and inside the support) and only then copies the quotient
to every permutation of its triple.  A copy has the same value, so it passes
the first two checks when the canonical value does.  It also passes the
third: at f >= b >= w the vertex exponent w is the smallest, so w >= 1 puts
all three exponents, in any order, at >= 1.  Each canonical value is stored
up to six times, so every cell files its values under the census's one
shared key tuple per exponent pair, not under six fresh tuples per canonical
key; the duplicate tuples would take about half of a census's memory.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .core import (
    CountTable,
    InexactDivisionError,
    NegativeCoefficientError,
    NotFilledError,
)


class HomoPoly:
    """Homogeneous trivariate polynomial with nonnegative integer coefficients.

    Terms are keyed by (f, b) with the third exponent w = degree - f - b
    implied; :meth:`terms` exposes full triples.
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: dict[tuple[int, int], int]):
        self.degree = degree
        self._terms = terms

    def terms(self):
        """Yield ((f, b, w), coefficient) with f+b+w = degree, all >= 1.

        The order of the terms is unspecified.
        """
        for (f, b), c in self._terms.items():
            yield (f, b, self.degree - f - b), c

    def fb_coefficients(self) -> Mapping[tuple[int, int], int]:
        """Read-only view {(f, b): coefficient}, with w = degree - f - b."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)


_ZERO = {}

# the recurrence factors s1, s2 and 1 in the fill's (f, b)-keyed format
S1 = {(1, 0): 1, (0, 1): 1, (0, 0): 1}
S2 = {(1, 1): 2, (1, 0): 2, (0, 1): 2, (2, 0): -1, (0, 2): -1, (0, 0): -1}
ONE = {(0, 0): 1}


def _add_product(rhs: dict, c: int, p1: dict, p2: dict, deg: int) -> None:
    """Add c * p1 * p2 to ``rhs`` at the canonical keys f >= b >= w of degree
    ``deg`` only; b >= w = deg - f - b is the same test as f + 2b >= deg."""
    for (f1, b1), a1 in p1.items():
        ca1 = c * a1
        for (f2, b2), a2 in p2.items():
            f = f1 + f2
            b = b1 + b2
            if f >= b and f + b + b >= deg:
                k = (f, b)
                rhs[k] = rhs.get(k, 0) + ca1 * a2


class RootedCensus:
    """Table of rooted-hypermap polynomials filled up to (max_genus, max_darts).

    Filling happens once, in the constructor, walking dart counts upward (a
    cell depends only on smaller dart counts); afterwards the census is
    immutable and safe to read from any thread, with bit-identical results
    whatever the query order.
    """

    engine = "kz"

    def __init__(self, max_genus: int, max_darts: int):
        if max_genus < 0 or max_darts < 1:
            raise ValueError("need max_genus >= 0 and max_darts >= 1")
        self.max_genus = max_genus
        self.max_darts = max_darts
        # one (f, b) tuple per exponent pair up to degree max_darts + 2
        top = max_darts + 3
        self._keys = [[(f, b) for b in range(top)] for f in range(top)]
        self._polys: dict[tuple[int, int], dict[tuple[int, int], int]] = {
            (0, 1): {self._keys[1][1]: 1}}
        self._fill()

    # -- fill ---------------------------------------------------------------

    def _fill(self) -> None:
        polys = self._polys
        for d in range(2, self.max_darts + 1):
            for g in range(0, self.max_genus + 1):
                terms = [(2 * d - 1, S1, polys.get((g, d - 1))),
                         (d - 2, S2, polys.get((g, d - 2))),
                         ((d - 1) * (d - 1) * (d - 2), ONE, polys.get((g - 1, d - 2)))]
                # each unordered pair {(i, j), (g-i, d-2-j)} once
                for i in range(0, g + 1):
                    for j in range(1, d - 2):
                        i2, j2 = g - i, d - 2 - j
                        if (i, j) < (i2, j2):
                            c = 4 * (d - 2) + 12 * j * j2
                        elif (i, j) == (i2, j2):
                            c = (4 + 6 * j) * j2
                        else:
                            continue
                        terms.append((c, polys.get((i, j)), polys.get((i2, j2))))
                deg = d + 2 - 2 * g
                rhs: dict[tuple[int, int], int] = {}
                for c, p1, p2 in terms:
                    if p1 and p2:
                        _add_product(rhs, c, p1, p2, deg)
                self._store(g, d, rhs)

    def _store(self, g: int, d: int, rhs: dict) -> None:
        """Check each canonical value of (d+1) * P[g,d] in ``rhs``, then store
        its quotient at every permutation of its triple."""
        deg = d + 2 - 2 * g
        div = d + 1
        keys = self._keys
        out = {}
        for (f, b), a in rhs.items():
            if a == 0:
                continue
            if a < 0:
                raise NegativeCoefficientError(
                    f"negative combined coefficient {a} at g={g} d={d} (f={f}, b={b})"
                )
            q, r = divmod(a, div)
            if r:
                raise InexactDivisionError(
                    f"coefficient {a} at g={g} d={d} (f={f}, b={b}) not divisible by {div}"
                )
            w = deg - f - b
            if w < 1:   # w is the smallest exponent at a canonical key
                raise NegativeCoefficientError(
                    f"nonzero coefficient outside support at g={g} d={d} (f={f}, b={b}, w={w})"
                )
            kf, kb, kw = keys[f], keys[b], keys[w]
            for k in (kf[b], kf[w], kb[f], kb[w], kw[f], kw[b]):
                out[k] = q
        if out:
            self._polys[g, d] = out

    # -- queries ------------------------------------------------------------

    def _check_range(self, g: int, d: int) -> None:
        if not (0 <= g <= self.max_genus and 1 <= d <= self.max_darts):
            raise NotFilledError(f"(g={g}, d={d}) outside filled range "
                                 f"(max_genus={self.max_genus}, max_darts={self.max_darts})")

    def poly(self, g: int, d: int) -> HomoPoly:
        self._check_range(g, d)
        return HomoPoly(d + 2 - 2 * g, self._polys.get((g, d), {}))

    def count(self, g: int, d: int, v: int, e: int, f: int) -> int:
        """Rooted hypermaps of genus g with d darts, v vertices, e hyperedges, f faces."""
        self._check_range(g, d)
        if v + e + f != d + 2 - 2 * g:
            return 0
        return self._polys.get((g, d), _ZERO).get((f, e), 0)

    def total(self, g: int, d: int) -> int:
        """All rooted hypermaps of genus g with d darts."""
        self._check_range(g, d)
        return sum(self._polys.get((g, d), _ZERO).values())

    def table(self, genus: int, max_darts: int | None = None) -> CountTable:
        """Export one genus as a CountTable keyed (g, t, v, e)."""
        max_darts = self.max_darts if max_darts is None else max_darts
        self._check_range(genus, max_darts)
        counts = {(genus, d, d + 2 - 2 * genus - f - b, b): c
                  for d in range(1, max_darts + 1)
                  for (f, b), c in self._polys.get((genus, d), _ZERO).items()}
        return CountTable(self.engine, genus, max_darts, counts)

