"""Oracle engine: sequenced and multirooted hypermap counts by direct recurrence.

A sequenced hypermap is a rooted hypermap with extra labelled distinguished
vertices (none of them the root vertex); the recorded data is the degree list
D of those vertices.  Deleting the root dart decomposes a sequenced hypermap
into smaller ones, which yields a recurrence on the counts
H(g, t, f, e, n, D) where n is the root-vertex degree.  The recurrence has
four contributions:

  (split)   the deletion disconnects the hypermap: sum over
            g1+g2 = g, t1+t2 = t-1, n1+n2 = n-1, sublists D1 of D, and the
            crossed cell constraints f1+e2 = e, f2+e1 = f;
  (handle)  the deletion drops the genus: for n >= 3 and g >= 1,
            sum of p * H(g-1, t-1, e, f, n-1-p, p.D) for p = 1..n-2;
  (merge)   the root vertex merges with an anonymous vertex:
            sum of H(g, t-1, e, f, p, D) for p = n..t-1;
  (absorb)  the root vertex merges with the j-th distinguished vertex:
            sum over j of H(g, t-1, e, f, d_j+n-1, D - {d_j}).

Each of the last three passes (e, f) into the (f, e) slots; that crossed
argument order is part of the identity (the reduction recolours cells) and is
pinned by regression tests against the main engine, since it is the easiest
slip to make.  The base case is H(0, 0, 1, 0, 0, []) = 1, the empty hypermap.

Multirooted hypermaps (each distinguished vertex also carries a chosen dart)
satisfy  Hm(g, t, f, e, [n] + D) = H(g, t, f, e, n, D) * prod(D)  and an
analogous direct recurrence; both are implemented, the product form as the
fast path and the direct form for cross-validation.

The same deletion scheme for ordinary maps (root-edge deletion or
contraction) gives the sequenced-map recurrence implemented by
:meth:`SequencedCensus.map_count`.

All counts depend on D only as a multiset, so memo keys sort D; sublist sums
iterate sub-multisets weighted by the number of sublists realizing each one
(a product of binomials over repeated values).  A count vanishes unless
n + sum(D) <= t (n + sum(D) <= 2 * edges for maps) and its cells fit the
genus: with c = t + 1 - 2g - |D|, a hypermap with t >= 1 darts needs
e, f >= 1 and e + f <= c, the empty one is (f, e) = (1, 0), and a map needs
1 <= f <= edges + 1 - 2g - |D|.  The split sums loop over the (n1, f1, e1)
box these guards allow for both factors, so no term they skip is nonzero.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod


def degree_list(D) -> tuple[int, ...]:
    """Canonical (sorted) form of a distinguished-vertex degree list."""
    out = tuple(D)
    if any(type(d) is not int for d in out):
        raise ValueError(f"degrees must be integers, got {out}")
    out = tuple(sorted(out))
    if out and out[0] < 1:
        raise ValueError(f"degrees must be >= 1, got {out}")
    return out


def sub_multisets(D: tuple[int, ...]):
    """Yield (sub, complement, multiplicity) over sub-multisets of sorted D.

    ``multiplicity`` is the number of sublists of D realizing ``sub``.
    """
    items = sorted(Counter(D).items())

    def rec(i):
        if i == len(items):
            yield (), (), 1
            return
        val, cnt = items[i]
        for sub, co, m in rec(i + 1):
            for k in range(cnt + 1):
                yield (val,) * k + sub, (val,) * (cnt - k) + co, m * comb(cnt, k)

    for sub, co, m in rec(0):
        yield tuple(sorted(sub)), tuple(sorted(co)), m


class SequencedCensus:
    """Memoized evaluator for the sequenced / multirooted recurrences.

    Evaluation is single-threaded.  The memos only gain entries: every
    computation of a key yields the same value, and a stored value is never
    changed.
    """

    engine = "seq"

    def __init__(self):
        self._hyper: dict = {}
        self._multi: dict = {}
        self._map: dict = {}

    # -- sequenced hypermaps --------------------------------------------------

    def hypermap(self, g: int, t: int, f: int, e: int, n: int, D=()) -> int:
        """Sequenced hypermaps of genus g, t darts, f faces, e hyperedges,
        root-vertex degree n and distinguished-vertex degree list D."""
        return self._H(g, t, f, e, n, degree_list(D))

    def _H(self, g, t, f, e, n, D) -> int:
        if g < 0 or t < 0 or f < 1 or e < 0 or n < 0:
            return 0
        if t == 0:
            return 1 if (g, f, e, n) == (0, 1, 0, 0) and not D else 0
        # root vertex and the |D| distinguished vertices are pairwise distinct
        if t + 2 * (1 - g) - e - f < 1 + len(D):
            return 0
        if n < 1 or e < 1 or n + sum(D) > t:
            return 0
        key = (g, t, f, e, n, D)
        cached = self._hyper.get(key)
        if cached is not None:
            return cached
        H = self._H
        total = 0
        for D1, D2, mult in sub_multisets(D):
            s1, s2 = sum(D1), sum(D2)
            for g1 in range(g + 1):
                g2 = g - g1
                for t1 in range(t):
                    t2 = t - 1 - t1
                    # the cell guard: a factor is zero unless 1 <= f',
                    # z' <= e' and e' + f' <= c', where z' is 0 for the
                    # empty hypermap and 1 otherwise; fs and es bound
                    # (f1, e1) and (f - e1, e - f1) by it
                    c1, z1 = t1 + 1 - 2 * g1 - len(D1), min(t1, 1)
                    c2, z2 = t2 + 1 - 2 * g2 - len(D2), min(t2, 1)
                    fs = range(max(1, e + 1 - c2), min(c1 - z1, e - z2) + 1)
                    es = range(max(z1, f + z2 - c2), min(c1, f))
                    if not fs or not es:
                        continue
                    for n1 in range(max(0, n - 1 - t2 + s2), min(n, t1 - s1 + 1)):
                        n2 = n - 1 - n1
                        for f1 in fs:
                            e2 = e - f1
                            for e1 in es:
                                h1 = H(g1, t1, f1, e1, n1, D1)
                                if h1:
                                    h2 = H(g2, t2, f - e1, e2, n2, D2)
                                    if h2:
                                        total += mult * h1 * h2
        if n >= 3 and g >= 1:
            for p in range(1, n - 1):
                total += p * H(g - 1, t - 1, e, f, n - 1 - p,
                               tuple(sorted((p,) + D)))
        for p in range(n, t):
            total += H(g, t - 1, e, f, p, D)
        for dj in set(D):
            rest = list(D)
            rest.remove(dj)
            total += D.count(dj) * H(g, t - 1, e, f, dj + n - 1, tuple(rest))
        self._hyper[key] = total
        return total

    def rooted(self, g: int, t: int, f: int, e: int) -> int:
        """Rooted hypermaps with f faces and e hyperedges: sum over root degree."""
        if t < 1:
            raise ValueError("need t >= 1")
        return sum(self._H(g, t, f, e, n, ()) for n in range(1, t + 1))

    # -- multirooted hypermaps ------------------------------------------------

    def multirooted(self, g: int, t: int, f: int, e: int, n: int, D=()) -> int:
        """Multirooted count via the product relation Hm = H * prod(D)."""
        D = degree_list(D)
        return self._H(g, t, f, e, n, D) * prod(D)

    def multirooted_direct(self, g: int, t: int, f: int, e: int, n: int, D=()) -> int:
        """Multirooted count by its own recurrence (cross-check path)."""
        return self._Hm(g, t, f, e, (n,) + degree_list(D))

    def _Hm(self, g, t, f, e, L) -> int:
        if g < 0 or t < 0 or f < 1 or e < 0:
            return 0
        if t == 0:
            # the head of L is the root-vertex degree, 0 for the empty hypermap
            return 1 if (g, f, e) == (0, 1, 0) and L in ((), (0,)) else 0
        if not L:
            return 0
        n, D = L[0], tuple(sorted(L[1:]))
        if t + 2 * (1 - g) - e - f < 1 + len(D):
            return 0
        if n < 1 or e < 1 or n + sum(D) > t:
            return 0
        key = (g, t, f, e, n, D)
        cached = self._multi.get(key)
        if cached is not None:
            return cached
        Hm = self._Hm
        total = 0
        for D1, D2, mult in sub_multisets(D):
            s1, s2 = sum(D1), sum(D2)
            for g1 in range(g + 1):
                g2 = g - g1
                for t1 in range(t):
                    t2 = t - 1 - t1
                    c1, z1 = t1 + 1 - 2 * g1 - len(D1), min(t1, 1)
                    c2, z2 = t2 + 1 - 2 * g2 - len(D2), min(t2, 1)
                    fs = range(max(1, e + 1 - c2), min(c1 - z1, e - z2) + 1)
                    es = range(max(z1, f + z2 - c2), min(c1, f))
                    if not fs or not es:
                        continue
                    for n1 in range(max(0, n - 1 - t2 + s2), min(n, t1 - s1 + 1)):
                        n2 = n - 1 - n1
                        for f1 in fs:
                            e2 = e - f1
                            for e1 in es:
                                h1 = Hm(g1, t1, f1, e1, (n1,) + D1)
                                if h1:
                                    h2 = Hm(g2, t2, f - e1, e2, (n2,) + D2)
                                    if h2:
                                        total += mult * h1 * h2
        if n >= 3 and g >= 1:
            for p in range(1, n - 1):
                total += Hm(g - 1, t - 1, e, f, (n - 1 - p, p) + D)
        for p in range(n, t):
            total += Hm(g, t - 1, e, f, (p,) + D)
        for dj in set(D):
            rest = list(D)
            rest.remove(dj)
            total += D.count(dj) * dj * Hm(g, t - 1, e, f, (dj + n - 1,) + tuple(rest))
        self._multi[key] = total
        return total

    # -- sequenced ordinary maps ----------------------------------------------

    def map_count(self, g: int, edges: int, f: int, n: int, D=()) -> int:
        """Sequenced orientable maps of genus g with ``edges`` edges, f faces,
        root-vertex degree n and distinguished-vertex degree list D."""
        return self._M(g, edges, f, n, degree_list(D))

    def _M(self, g, e, f, n, D) -> int:
        if g < 0 or e < 0 or f < 1 or n < 0:
            return 0
        if e == 0:
            return 1 if (g, f, n) == (0, 1, 0) and not D else 0
        if 2 - 2 * g + e - f < 1 + len(D):
            return 0
        if n < 1 or n + sum(D) > 2 * e:
            return 0
        key = (g, e, f, n, D)
        cached = self._map.get(key)
        if cached is not None:
            return cached
        M = self._M
        total = 0
        for D1, D2, mult in sub_multisets(D):
            s1, s2 = sum(D1), sum(D2)
            for g1 in range(g + 1):
                g2 = g - g1
                for e1 in range(e):
                    e2 = e - 1 - e1
                    # the cell guard: a factor has 1 <= f' <= c'
                    c1 = e1 + 1 - 2 * g1 - len(D1)
                    c2 = e2 + 1 - 2 * g2 - len(D2)
                    for f1 in range(max(1, f - c2), min(f - 1, c1) + 1):
                        f2 = f - f1
                        for n1 in range(max(0, n - 2 - 2 * e2 + s2),
                                        min(n - 1, 2 * e1 - s1 + 1)):
                            h1 = M(g1, e1, f1, n1, D1)
                            if h1:
                                h2 = M(g2, e2, f2, n - 2 - n1, D2)
                                if h2:
                                    total += mult * h1 * h2
        for p in range(1, n - 2):
            total += p * M(g - 1, e - 1, f, n - 2 - p, tuple(sorted((p,) + D)))
        for p in range(n - 1, 2 * e - 1):
            total += M(g, e - 1, f, p, D)
        for dj in set(D):
            rest = list(D)
            rest.remove(dj)
            total += D.count(dj) * M(g, e - 1, f, dj + n - 2, tuple(rest))
        self._map[key] = total
        return total
