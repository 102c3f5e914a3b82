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

Each of the four terms is a coefficient times a product of two factors.
The recurrence is stated once, in :meth:`RootedCensus._recurrence`, which
lists one cell's right-hand side as (coefficient, factor, factor) terms, a
factor being a cell key (i, j) or one of the fixed factors s1, s2 and 1
(:data:`S1`, :data:`S2`, :data:`ONE`).  The fill resolves each factor to a
pair (slot keys, coefficients), and one kernel, :func:`_add_product`,
multiplies the pairs and holds the only canonical-key test.  The
convolution lists each unordered factor pair {(i, j), (g-i, d-2-j)} once:
the two orders multiply the same polynomials, so their weights merge into
(4+6j) * j' + (4+6j') * j = 4(d-2) + 12 * j * j', while a pair equal to its
mirror keeps (4+6j) * j'.

:meth:`RootedCensus._store` checks each canonical value (nonnegative, exactly
divisible by d+1, and inside the support) and only then copies the quotient
to every permutation of its triple.  A copy has the same value, so it passes
the first two checks when the canonical value does.  It also passes the
third: at f >= b >= w the vertex exponent w is the smallest, so w >= 1 puts
all three exponents, in any order, at >= 1.  A cell with d >= 2g+1 that
comes out empty raises :class:`~hypermap_census.core.CensusError`, because a
genus-g hypermap exists at every such d: at n = 2g+1 darts, sigma an n-cycle
and alpha = sigma^-2 make sigma, alpha and sigma * alpha three n-cycles, and
a new degree-1 hyperedge adds a dart and keeps the genus.  So a term that
went missing cannot empty a whole genus silently.

A stored cell is one tuple of coefficients, one slot for every (f, b) with
f, b, w >= 1 in the cell's degree, row by row in f and by b within a row.
The census keeps, per degree, one tuple of the slot keys in that order and a
row-offset table, so (f, b) sits at index row[f] + b.  Every cell filled so
far is full (each slot of its degree holds a nonzero count), but the layout
does not rely on that: a zero slot is stored as 0 and skipped on export.
"""

from __future__ import annotations

from .core import (
    CensusError,
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

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)


# the recurrence factors s1, s2 and 1 as (keys, coefficients) pairs
S1 = (((1, 0), (0, 1), (0, 0)), (1, 1, 1))
S2 = (((1, 1), (1, 0), (0, 1), (2, 0), (0, 2), (0, 0)), (2, 2, 2, -1, -1, -1))
ONE = (((0, 0),), (1,))


def _add_product(rhs: dict, c: int, p1: tuple, p2: tuple, deg: int) -> None:
    """Add c * p1 * p2 to ``rhs`` at the canonical keys f >= b >= w of degree
    ``deg`` only; b >= w = deg - f - b is the same test as f + 2b >= deg."""
    keys2, coeffs2 = p2
    for (f1, b1), a1 in zip(*p1):
        ca1 = c * a1
        for (f2, b2), a2 in zip(keys2, coeffs2):
            f = f1 + f2
            b = b1 + b2
            if f >= b and f + b + b >= deg:
                k = (f, b)
                rhs[k] = rhs.get(k, 0) + ca1 * a2


def _slots(top: int) -> list[tuple[tuple, list[int]]]:
    """Per degree below ``top``: the slot keys (f, b) with f, b, w >= 1, row
    by row in f, and the row offsets, so that (f, b) sits at row[f] + b.
    Every degree's keys refer to one (f, b) tuple per exponent pair."""
    pairs = [[(f, b) for b in range(top)] for f in range(top)]
    slots = []
    for deg in range(top):
        keys = []
        row = [0] * (deg - 1)     # row[0] is never read
        for f in range(1, deg - 1):
            row[f] = len(keys) - 1
            keys += pairs[f][1:deg - f]
        slots.append((tuple(keys), row))
    return slots


class RootedCensus:
    """Table of rooted-hypermap polynomials filled up to (max_genus, max_darts).

    Filling happens once, in the constructor, walking dart counts upward (a
    cell depends only on smaller dart counts); afterwards the census is
    immutable and safe to read from any thread, with bit-identical results
    whatever the query order.  Both bounds must be ``int`` (not ``bool``),
    max_genus >= 0 and max_darts >= 1; anything else is a ValueError.
    """

    engine = "kz"

    def __init__(self, max_genus: int, max_darts: int):
        if type(max_genus) is not int or type(max_darts) is not int \
                or max_genus < 0 or max_darts < 1:
            raise ValueError("need integers max_genus >= 0 and max_darts >= 1")
        self.max_genus = max_genus
        self.max_darts = max_darts
        # slot keys and row offsets per degree, up to degree max_darts + 2
        self._slots = _slots(max_darts + 3)
        self._cells: dict[tuple[int, int], tuple[int, ...]] = {(0, 1): (1,)}
        self._fill()

    # -- fill ---------------------------------------------------------------

    def _recurrence(self, g: int, d: int) -> list[tuple]:
        """The right-hand side of (d+1) * P[g,d] as (coefficient, factor,
        factor) terms.  A factor is a cell key (i, j), standing for P[i,j]
        (zero when the census holds no such cell), or one of the fixed
        factors S1, S2 and ONE.  Each unordered convolution pair is listed
        once, with the weights of its two orders merged."""
        terms = [(2 * d - 1, S1, (g, d - 1)),
                 (d - 2, S2, (g, d - 2)),
                 ((d - 1) * (d - 1) * (d - 2), ONE, (g - 1, d - 2))]
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
                terms.append((c, (i, j), (i2, j2)))
        return terms

    def _fill(self) -> None:
        cells, slots = self._cells, self._slots
        # every factor a term can name, as a (slot keys, coefficients) pair
        # for _add_product: a fixed factor stands for itself, a cell key for
        # its filled cell, and a key not in here for the zero polynomial
        factors = {S1: S1, S2: S2, ONE: ONE, (0, 1): (slots[3][0], cells[0, 1])}
        for d in range(2, self.max_darts + 1):
            for g in range(0, self.max_genus + 1):
                deg = d + 2 - 2 * g
                rhs: dict[tuple[int, int], int] = {}
                for c, k1, k2 in self._recurrence(g, d):
                    p1, p2 = factors.get(k1), factors.get(k2)
                    if p1 and p2:
                        _add_product(rhs, c, p1, p2, deg)
                self._store(g, d, rhs)
                if (g, d) in cells:
                    factors[g, d] = (slots[deg][0], cells[g, d])

    def _store(self, g: int, d: int, rhs: dict) -> None:
        """Check each canonical value of (d+1) * P[g,d] in ``rhs``, then store
        its quotient at every permutation of its triple; raise if the cell
        comes out empty at d >= 2g+1."""
        deg = d + 2 - 2 * g
        div = d + 1
        out = None
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
            if out is None:     # here deg >= 3, as f >= b >= w >= 1
                keys, row = self._slots[deg]
                out = [0] * len(keys)
            rf, rb, rw = row[f], row[b], row[w]
            out[rf + b] = out[rf + w] = out[rb + f] = out[rb + w] = out[rw + f] = out[rw + b] = q
        if out is not None:
            self._cells[g, d] = tuple(out)
        elif d >= 2 * g + 1:
            raise CensusError(
                f"no nonzero coefficient at g={g} d={d}, where genus-{g} hypermaps exist"
            )

    # -- queries ------------------------------------------------------------

    def _check_range(self, g: int, d: int) -> None:
        if not (0 <= g <= self.max_genus and 1 <= d <= self.max_darts):
            raise NotFilledError(f"(g={g}, d={d}) outside filled range "
                                 f"(max_genus={self.max_genus}, max_darts={self.max_darts})")

    def _terms(self, g: int, d: int):
        """((f, b), coefficient) for every nonzero term of P[g,d]."""
        cell = self._cells.get((g, d))
        if cell is None:
            return ()
        return ((k, c) for k, c in zip(self._slots[d + 2 - 2 * g][0], cell) if c)

    def poly(self, g: int, d: int) -> HomoPoly:
        self._check_range(g, d)
        return HomoPoly(d + 2 - 2 * g, dict(self._terms(g, d)))

    def coefficients(self, g: int, d: int) -> tuple[list[int], tuple[int, ...]]:
        """(row, coeffs) for P[g,d]: its coefficient at (f, b, w) is
        coeffs[row[f] + b] for f >= 1 and 1 <= b < d + 2 - 2g - f (so w >= 1).
        Any other index reads another slot or fails, so callers stay inside
        that range.  ``coeffs`` is empty for the zero polynomial."""
        self._check_range(g, d)
        deg = d + 2 - 2 * g
        return self._slots[max(deg, 0)][1], self._cells.get((g, d), ())

    def count(self, g: int, d: int, v: int, e: int, f: int) -> int:
        """Rooted hypermaps of genus g with d darts, v vertices, e hyperedges, f faces."""
        self._check_range(g, d)
        deg = d + 2 - 2 * g
        if v < 1 or e < 1 or f < 1 or v + e + f != deg:
            return 0
        # deg >= 3 makes d >= 2g + 1, where _store leaves no cell empty
        return self._cells[g, d][self._slots[deg][1][f] + e]

    def total(self, g: int, d: int) -> int:
        """All rooted hypermaps of genus g with d darts."""
        self._check_range(g, d)
        return sum(self._cells.get((g, d), ()))

    def table(self, genus: int, max_darts: int | None = None) -> CountTable:
        """Export one genus as a CountTable keyed (g, t, v, e)."""
        max_darts = self.max_darts if max_darts is None else max_darts
        self._check_range(genus, max_darts)
        counts = {(genus, d, d + 2 - 2 * genus - f - b, b): c
                  for d in range(1, max_darts + 1)
                  for (f, b), c in self._terms(genus, d)}
        return CountTable(self.engine, genus, max_darts, counts)
