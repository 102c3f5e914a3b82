import itertools
import tracemalloc

import pytest

from hypermap_census import (InexactDivisionError, NegativeCoefficientError,
                              NotFilledError, RootedCensus)
from hypermap_census.rooted import ONE, S1, S2, _add_product
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
    # about 375 KiB on CPython 3.10 and 3.11; a dict per cell held 1,020 KiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        census = RootedCensus(11, 30)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert census.total(11, 30) > 0
    assert held < 600 * 1024


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


class _SlippedCensus(RootedCensus):
    """``RootedCensus`` whose ``_fill`` is a copy with at most one slip in it."""

    def __init__(self, slip, max_genus, max_darts):
        self.slip = slip
        super().__init__(max_genus, max_darts)

    def _fill(self) -> None:
        cells, slots, slip = self._cells, self._slots, self.slip
        factors = {(0, 1): (slots[3][0], cells[0, 1])}
        for d in range(2, self.max_darts + 1):
            for g in range(0, self.max_genus + 1):
                s2 = d - 1 if slip == "s2 coefficient d-1" else d - 2
                handle = d if slip == "handle coefficient" else d - 1
                terms = [(2 * d - 1, S1, factors.get((g, d - 1))),
                         (s2, S2, factors.get((g, d - 2))),
                         (handle * (d - 1) * (d - 2), ONE, factors.get((g - 1, d - 2)))]
                for i in range(0, g + 1):
                    for j in range(1 + (slip == "dropped j = 1"), d - 2):
                        i2, j2 = g - i, d - 2 - j
                        if (i, j) < (i2, j2) and slip != "unsymmetrised weight":
                            c = 4 * (d - 2) + 12 * j * j2
                        elif (i, j) <= (i2, j2):
                            c = (4 + 6 * j) * j2
                        else:
                            continue
                        terms.append((c, factors.get((i, j)), factors.get((i2, j2))))
                deg = d + 2 - 2 * g
                rhs: dict[tuple[int, int], int] = {}
                for c, p1, p2 in terms:
                    if p1 and p2:
                        _add_product(rhs, c, p1, p2, deg)
                self._store(g, d, rhs)
                if (g, d) in cells:
                    factors[g, d] = (slots[deg][0], cells[g, d])


@pytest.mark.deep
def test_slip_free_copy_of_the_fill_matches():
    assert _SlippedCensus(None, 10, 30)._cells == RootedCensus(10, 30)._cells


@pytest.mark.deep
@pytest.mark.parametrize("slip,error", [
    ("s2 coefficient d-1", InexactDivisionError),
    ("handle coefficient", InexactDivisionError),
    ("unsymmetrised weight", InexactDivisionError),
    ("dropped j = 1", InexactDivisionError),
])
def test_fill_checks_catch_each_slip(slip, error):
    with pytest.raises(error) as caught:
        _SlippedCensus(slip, 10, 30)
    assert caught.traceback[-1].name == "_store"
