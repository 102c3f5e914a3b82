import itertools

import pytest

from hypermap_census import NotFilledError, RootedCensus
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
