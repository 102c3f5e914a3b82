import itertools
import re
import tracemalloc

import pytest

from hypermap_census import (CensusError, InexactDivisionError,
                              NegativeCoefficientError, NotFilledError, RootedCensus)
from bruteforce import hypermap_census_by_pairs


def test_one_dart_base_polynomial(census14):
    poly = census14.poly(0, 1)
    assert dict(poly.terms()) == {(1, 1, 1): 1}
    assert poly.degree == 3


@pytest.mark.parametrize("key,expected", [
    ((0, 4, 2, 2, 2), 17),
    ((2, 5, 1, 1, 1), 8),
    ((1, 4, 1, 2, 1), 5),
    ((6, 13, 1, 1, 1), 68428800),
    ((0, 3, 2, 2, 1), 3),
    ((5, 14, 2, 2, 2), 27934773440),
])
def test_printed_counts(census14, key, expected):
    assert census14.count(*key) == expected


def test_degree_too_small_gives_zero_polynomial(census14):
    # at genus 1 with 2 darts the homogeneous degree 2 admits no triple of
    # positive exponents
    assert census14.poly(1, 2).is_zero()
    assert census14.total(1, 2) == 0


@pytest.mark.parametrize("g,d,expected", [
    (0, 5, 288),
    (1, 7, 14805),
    (3, 9, 268980),
    (6, 14, 8099018496),
])
def test_totals(census14, g, d, expected):
    assert census14.total(g, d) == expected


def test_homogeneity_and_positivity(census14):
    for g in range(0, 7):
        for d in range(1, 15):
            poly = census14.poly(g, d)
            for (f, b, w), c in poly.terms():
                assert f >= 1 and b >= 1 and w >= 1
                assert f + b + w == d + 2 - 2 * g == poly.degree
                assert c >= 1


def test_full_permutation_symmetry(census14):
    for g in range(0, 4):
        for d in range(1, 11):
            for (f, b, w), c in census14.poly(g, d).terms():
                for pf, pb, pw in itertools.permutations((f, b, w)):
                    assert census14.count(g, d, pw, pb, pf) == c


def test_invalid_triples_count_zero(census14):
    assert census14.count(0, 4, 2, 2, 3) == 0   # wrong total degree
    assert census14.count(0, 4, 4, 4, 4) == 0


def test_not_filled_errors(census14):
    with pytest.raises(NotFilledError):
        census14.count(7, 3, 1, 1, 1)
    with pytest.raises(NotFilledError):
        census14.total(0, 15)
    with pytest.raises(NotFilledError):
        census14.poly(-1, 3)


def test_fill_rejects_bad_bounds():
    with pytest.raises(ValueError):
        RootedCensus(-1, 5)
    with pytest.raises(ValueError):
        RootedCensus(0, 0)


class _UnfilledCensus(RootedCensus):
    """``RootedCensus`` that covers its bounds but holds only the base cell."""

    def _fill(self) -> None:
        pass


def test_store_checks_canonical_values_then_copies_them():
    census = _UnfilledCensus(0, 4)
    # g = 0, d = 4: degree 6, divisor 5; keys are (f, b), w = 6 - f - b
    with pytest.raises(InexactDivisionError):
        census._store(0, 4, {(3, 2): 11})
    assert census.poly(0, 4).is_zero()
    with pytest.raises(NegativeCoefficientError, match="negative"):
        census._store(0, 4, {(3, 2): -10})
    assert census.poly(0, 4).is_zero()
    with pytest.raises(NegativeCoefficientError, match="outside support"):
        census._store(0, 4, {(3, 3): 10})   # w = 0
    assert census.poly(0, 4).is_zero()
    with pytest.raises(CensusError, match="no nonzero coefficient"):
        census._store(0, 4, {(3, 2): 0})    # a genus-0 hypermap has 4 darts
    assert census.poly(0, 4).is_zero()
    census._store(1, 2, {})     # but no genus-1 hypermap has 2
    census._store(0, 4, {(3, 2): 10, (2, 2): 0})
    for v, e, f in itertools.permutations((3, 2, 1)):
        assert census.count(0, 4, v, e, f) == 2
    for v, e, f in [*itertools.permutations((4, 1, 1)), (2, 2, 2)]:
        assert census.count(0, 4, v, e, f) == 0
    assert dict(census.poly(0, 4).terms()) == {
        key: 2 for key in itertools.permutations((3, 2, 1))}
    rows = {key: c for key, c in census.table(0).items() if key[1] == 4}
    assert len(rows) == 6 and set(rows.values()) == {2}


def test_count_is_zero_off_the_support():
    # a stored cell is a flat tuple, so a key off the support must not be
    # read as some other slot (or, through a negative index, from the end)
    census = RootedCensus(3, 12)
    for g in range(0, 4):
        for d in range(1, 13):
            terms = dict(census.poly(g, d).terms())
            for v, e, f in itertools.product(range(-1, d + 4), repeat=3):
                c = census.count(g, d, v, e, f)
                assert c == terms.get((f, e, v), 0), (g, d, v, e, f)
                if min(v, e, f) < 1 or v + e + f != d + 2 - 2 * g or d < 2 * g + 1:
                    assert c == 0, (g, d, v, e, f)


def test_census_holds_one_tuple_of_coefficients_per_cell():
    # about 88 KiB on CPython 3.10 and 3.11; a dict per cell held 226 KiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        census = RootedCensus(6, 20)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert census.total(6, 20) > 0
    assert held < 150 * 1024


def test_table_export_matches_counts(census14):
    table = census14.table(1, max_darts=8)
    assert table.engine == "kz"
    for (g, t, v, e), c in table.items():
        assert g == 1 and t <= 8
        assert census14.count(1, t, v, e, t + 2 - 2 - v - e) == c
    assert table.total(1, 7) == 14805


def test_against_dart_level_enumeration():
    """Definition-level oracle: enumerate permutation pairs for t <= 5."""
    census = RootedCensus(2, 5)
    for t in range(1, 6):
        pairs = hypermap_census_by_pairs(t)
        by_key = {}
        for (g, v, e, f, n, others), cnt in pairs.items():
            key = (g, v, e, f)
            by_key[key] = by_key.get(key, 0) + cnt
        for g in range(0, 3):
            deg = t + 2 - 2 * g
            for v in range(1, deg + 1):
                for e in range(1, deg + 1):
                    f = deg - v - e
                    if f < 1:
                        continue
                    assert census.count(g, t, v, e, f) == by_key.get((g, v, e, f), 0), \
                        (g, t, v, e, f)


def _cell(factor):
    """Whether a factor of ``RootedCensus._recurrence`` is a cell key (i, j)."""
    return isinstance(factor[0], int)


# each slip rewrites the terms of (d+1) * P[g,d] that _recurrence lists; the
# s2 and handle terms are the ones that name P[g,d-2] and P[g-1,d-2]
_SLIPS = {
    "s2 coefficient d-1": lambda g, d, terms: [
        (d - 1 if k2 == (g, d - 2) else c, k1, k2) for c, k1, k2 in terms],
    "handle coefficient": lambda g, d, terms: [
        (d * (d - 1) * (d - 2) if k2 == (g - 1, d - 2) else c, k1, k2) for c, k1, k2 in terms],
    "unsymmetrised weight": lambda g, d, terms: [
        ((4 + 6 * k1[1]) * k2[1] if _cell(k1) and k1 < k2 else c, k1, k2) for c, k1, k2 in terms],
    "dropped j = 1": lambda g, d, terms: [
        t for t in terms if not (_cell(t[1]) and t[1][1] == 1)],
    "s2 term dropped": lambda g, d, terms: [
        t for t in terms if t[2] != (g, d - 2)],
    "handle reads P[g-1,d-1]": lambda g, d, terms: [
        (c, k1, (g - 1, d - 1) if k2 == (g - 1, d - 2) else k2) for c, k1, k2 in terms],
    "mirror-pair weight doubled": lambda g, d, terms: [
        (2 * c if k1 == k2 else c, k1, k2) for c, k1, k2 in terms],
    "handle term dropped": lambda g, d, terms: [
        t for t in terms if t[2] != (g - 1, d - 2)],
}


class _SlippedCensus(RootedCensus):
    """``RootedCensus`` whose recurrence has at most one slip in it."""

    def __init__(self, slip, max_genus, max_darts):
        self.slip = slip
        super().__init__(max_genus, max_darts)

    def _recurrence(self, g, d):
        terms = super()._recurrence(g, d)
        return _SLIPS[self.slip](g, d, terms) if self.slip else terms


def test_slip_free_recurrence_fills_the_same_cells():
    assert _SlippedCensus(None, 6, 20)._cells == RootedCensus(6, 20)._cells


@pytest.mark.parametrize("slip,error,g,d", [
    ("s2 coefficient d-1", InexactDivisionError, 0, 3),
    ("handle coefficient", InexactDivisionError, 1, 3),
    ("unsymmetrised weight", InexactDivisionError, 0, 5),
    ("dropped j = 1", InexactDivisionError, 0, 6),
    ("s2 term dropped", InexactDivisionError, 0, 3),
    ("handle reads P[g-1,d-1]", NegativeCoefficientError, 1, 3),   # outside support
    ("mirror-pair weight doubled", InexactDivisionError, 0, 6),
    ("handle term dropped", CensusError, 1, 3),     # genus >= 1 comes out empty
])
def test_fill_checks_catch_each_slip(slip, error, g, d):
    with pytest.raises(error) as caught:
        _SlippedCensus(slip, 10, 30)
    assert caught.type is error
    assert caught.traceback[-1].name == "_store"
    assert re.search(rf"\bg={g} d={d}\b", str(caught.value))
