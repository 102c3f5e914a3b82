"""Shared exact-arithmetic plumbing: key validation and sparse count tables.

Every count in this package is a plain Python ``int`` (arbitrary precision,
never negative once stored) and every key is a tuple of small integers tied
together by an Euler-type genus relation:

* hypermaps:  v + e + f = t + 2*(1 - g)   (t darts, v vertices, e hyperedges,
  f faces, genus g)
* ordinary maps:  v - e + f = 2*(1 - g)   (e edges)

A :class:`CountTable` holds the strictly positive counts of one genus keyed
by ``(g, t, v, e)``; the face count is always derived from the genus relation
and never stored.  A table is built whole from a finished dict and checks
every row once, so an inconsistent key or a row of another genus or dart
range cannot be represented.  Reading a table at another genus or outside
its dart range raises :class:`NotFilledError` rather than answering 0, and
two tables are equal when their genus, dart range and rows are.
"""

from __future__ import annotations


class CensusError(Exception):
    """Base class for all errors raised by this package."""


class InexactDivisionError(CensusError):
    """An integer division that must be exact left a remainder."""


class NegativeCoefficientError(CensusError):
    """A quantity that counts something came out negative."""


class NotFilledError(CensusError, KeyError):
    """A lookup went beyond the range a table was filled for."""


EMPTY_HYPERMAP_KEY = (0, 0, 1, 0, 1)  # (g, t, v, e, f)


def faces_from_key(g: int, t: int, v: int, e: int) -> int:
    """Face count forced by the genus relation; <= 0 means "no such hypermap"."""
    return t + 2 * (1 - g) - v - e


def validate_hypermap_key(g: int, t: int, v: int, e: int, f: int) -> bool:
    """True iff (g,t,v,e,f) satisfies the hypermap genus relation.

    The empty hypermap (0,0,1,0,1) is the only valid key with t = 0.
    """
    if min(g, t, v, e, f) < 0:
        return False
    if v + e + f != t + 2 * (1 - g):
        return False
    if v < 1 or f < 1:
        return False
    if t == 0:
        return (g, t, v, e, f) == EMPTY_HYPERMAP_KEY
    return True


def validate_map_key(g: int, edges: int, v: int, f: int) -> bool:
    """True iff (g,edges,v,f) satisfies the Euler relation for ordinary maps."""
    if min(g, edges, v, f) < 0 or v < 1 or f < 1:
        return False
    return v - edges + f == 2 * (1 - g)


class CountTable:
    """The positive counts of one genus, (g, t, v, e) -> count, plus the name
    of the engine that computed them.

    Immutable: built whole from a finished ``{(g, t, v, e): count}`` dict.
    The constructor checks every row once: its count is a positive ``int``,
    g is the table's genus, 1 <= t <= max_darts and the key is one
    :func:`validate_hypermap_key` accepts, that is g >= 0, v >= 1, e >= 0 and
    f = t + 2 - 2g - v - e >= 1 (tested inline, on integers, for speed);
    a negative count is a :class:`NegativeCoefficientError`, any other bad
    row a :class:`CensusError`.  A genus below 0 or a max_darts below 1 is a
    :class:`CensusError` too, with or without rows.  :meth:`count` and
    :meth:`total` raise :class:`NotFilledError` when g is not the table's
    genus or t is outside 1..max_darts; inside that range an absent key reads
    0.  Tables are equal when their genus, max_darts and rows are; the engine
    name is left out.
    """

    def __init__(self, engine: str, genus: int, max_darts: int, counts: dict):
        for (g, t, v, e), c in counts.items():
            if type(c) is not int:
                raise CensusError(f"count {c!r} at {(g, t, v, e)} is not an integer")
            if c < 1:
                if c < 0:
                    raise NegativeCoefficientError(f"count {c} at {(g, t, v, e)}")
                raise CensusError(f"zero count at {(g, t, v, e)}")
            if g != genus or t < 1 or t > max_darts:
                raise CensusError(f"row {(g, t, v, e)} is not of genus {genus} "
                                  f"with 1 to {max_darts} darts")
            # validate_hypermap_key at t >= 1, with f from the genus relation
            if g < 0 or v < 1 or e < 0 or t + 2 - 2 * g - v - e < 1:
                raise CensusError(f"invalid key (g={g}, t={t}, v={v}, e={e})")
        if genus < 0 or max_darts < 1:
            raise CensusError(f"no table of genus {genus} with 1 to {max_darts} darts")
        self.engine = engine
        self.genus = genus
        self.max_darts = max_darts
        self._data = dict(counts)

    def _check_range(self, g: int, t: int) -> None:
        if g != self.genus or not 1 <= t <= self.max_darts:
            raise NotFilledError(f"(g={g}, d={t}) outside table range "
                                 f"(genus={self.genus}, max_darts={self.max_darts})")

    def count(self, g: int, t: int, v: int, e: int, f: int | None = None) -> int:
        """Count at a key; 0 when absent or when f contradicts the genus relation."""
        self._check_range(g, t)
        if f is not None and f != faces_from_key(g, t, v, e):
            return 0
        return self._data.get((g, t, v, e), 0)

    def total(self, g: int, t: int) -> int:
        self._check_range(g, t)
        return sum(c for (_, tt, _, _), c in self._data.items() if tt == t)

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (self.genus, self.max_darts, self._data) == \
            (other.genus, other.max_darts, other._data)
