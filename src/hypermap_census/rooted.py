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
"""

from __future__ import annotations

from .core import (
    CountTable,
    InexactDivisionError,
    NegativeCoefficientError,
    NotFilledError,
)


class HomoPoly:
    """Homogeneous trivariate polynomial with nonnegative integer coefficients.

    Terms are keyed by (f, b) with the third exponent w = degree - f - b
    implied; :meth:`coefficient` and :meth:`terms` expose full triples.
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: dict[tuple[int, int], int]):
        self.degree = degree
        self._terms = terms

    def coefficient(self, f: int, b: int, w: int) -> int:
        if f + b + w != self.degree:
            return 0
        return self._terms.get((f, b), 0)

    def terms(self):
        """Yield ((f, b, w), coefficient) with f+b+w = degree, all >= 1."""
        for (f, b), c in self._terms.items():
            yield (f, b, self.degree - f - b), c

    def total(self) -> int:
        return sum(self._terms.values())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)


_ZERO = {}


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
        self._polys: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
        self._fill()

    # -- fill ---------------------------------------------------------------

    def _fill(self) -> None:
        polys = self._polys
        for d in range(1, self.max_darts + 1):
            for g in range(0, self.max_genus + 1):
                if d == 1 and g == 0:
                    polys[0, 1] = {(1, 1): 1}
                    continue
                rhs: dict[tuple[int, int], int] = {}
                prev = polys.get((g, d - 1))
                if prev:
                    c = 2 * d - 1
                    for (f, b), a in prev.items():
                        ca = c * a
                        for k in ((f + 1, b), (f, b + 1), (f, b)):
                            rhs[k] = rhs.get(k, 0) + ca
                prev2 = polys.get((g, d - 2))
                if prev2 and d > 2:
                    c = d - 2
                    for (f, b), a in prev2.items():
                        ca = c * a
                        rhs[f + 1, b + 1] = rhs.get((f + 1, b + 1), 0) + 2 * ca
                        rhs[f + 1, b] = rhs.get((f + 1, b), 0) + 2 * ca
                        rhs[f, b + 1] = rhs.get((f, b + 1), 0) + 2 * ca
                        rhs[f + 2, b] = rhs.get((f + 2, b), 0) - ca
                        rhs[f, b + 2] = rhs.get((f, b + 2), 0) - ca
                        rhs[f, b] = rhs.get((f, b), 0) - ca
                lower = polys.get((g - 1, d - 2))
                if lower and d > 2:
                    c = (d - 1) * (d - 1) * (d - 2)
                    for k, a in lower.items():
                        rhs[k] = rhs.get(k, 0) + c * a
                for i in range(0, g + 1):
                    for j in range(1, d - 2):
                        p1 = polys.get((i, j), _ZERO)
                        if not p1:
                            continue
                        p2 = polys.get((g - i, d - 2 - j), _ZERO)
                        if not p2:
                            continue
                        c = (4 + 6 * j) * (d - 2 - j)
                        for (f1, b1), a1 in p1.items():
                            ca1 = c * a1
                            for (f2, b2), a2 in p2.items():
                                k = (f1 + f2, b1 + b2)
                                rhs[k] = rhs.get(k, 0) + ca1 * a2
                self._store(g, d, rhs)

    def _store(self, g: int, d: int, rhs: dict) -> None:
        deg = d + 2 - 2 * g
        div = d + 1
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
            if f < 1 or b < 1 or w < 1:
                raise NegativeCoefficientError(
                    f"nonzero coefficient outside support at g={g} d={d} (f={f}, b={b}, w={w})"
                )
            out[f, b] = q
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
        out = CountTable(engine=self.engine, max_genus=genus, max_darts=max_darts)
        for d in range(1, max_darts + 1):
            deg = d + 2 - 2 * genus
            for (f, b), c in self._polys.get((genus, d), _ZERO).items():
                out.add(genus, d, deg - f - b, b, c)
        return out.freeze()

