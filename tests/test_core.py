import pytest

from hypermap_census import (
    CensusError,
    CountTable,
    NegativeCoefficientError,
    NotFilledError,
    RootedCensus,
    faces_from_key,
    validate_hypermap_key,
    validate_map_key,
)


@pytest.mark.parametrize("key,expected", [
    ((0, 4, 2, 2, 2), True),
    ((1, 3, 1, 1, 1), True),
    ((1, 2, 1, 1, 1), False),   # 1+1+1 != 2+0
    ((0, 0, 1, 0, 1), True),    # the empty hypermap
    ((0, 0, 2, 0, 1), False),
    ((0, 1, 1, 1, 1), True),
    ((0, 4, 0, 2, 4), False),   # v must be >= 1
    ((0, 4, 2, 2, 0), False),   # f must be >= 1
    ((6, 13, 1, 1, 1), True),
])
def test_validate_hypermap_key(key, expected):
    assert validate_hypermap_key(*key) is expected


def test_validate_rejects_negative_arguments():
    assert not validate_hypermap_key(-1, 4, 2, 2, 4)
    assert not validate_hypermap_key(0, 4, 2, -2, 6)


@pytest.mark.parametrize("args,expected", [
    ((0, 4, 2, 2), 2),
    ((6, 13, 1, 1), 1),
    ((1, 3, 3, 3), -3),   # over-constrained, caller treats as "no such hypermap"
])
def test_faces_from_key(args, expected):
    assert faces_from_key(*args) == expected


def test_validate_map_key():
    assert validate_map_key(0, 0, 1, 1)          # the edgeless map
    assert validate_map_key(0, 1, 1, 2)          # the loop
    assert validate_map_key(0, 1, 2, 1)          # the link
    assert validate_map_key(1, 2, 1, 1)          # torus, two edges
    assert not validate_map_key(0, 1, 1, 1)
    assert not validate_map_key(1, 2, 0, 2)


def test_count_table_reads():
    table = CountTable("kz", 0, 4, {(0, 4, 2, 2): 17, (0, 4, 1, 1): 1, (0, 3, 1, 1): 3})
    assert (table.engine, table.genus, table.max_darts) == ("kz", 0, 4)
    assert table.count(0, 4, 2, 2) == 17
    assert table.count(0, 4, 2, 2, f=2) == 17
    assert table.count(0, 4, 2, 2, f=3) == 0   # contradicts the genus relation
    assert table.count(0, 4, 3, 3) == 0
    assert len(table) == 3
    assert table.total(0, 4) == 18
    assert table.total(0, 2) == 0


def test_count_table_equality_ignores_dict_order():
    rows = [((0, 4, 2, 2), 17), ((0, 4, 1, 1), 1), ((0, 3, 1, 1), 3)]
    table = CountTable("kz", 0, 4, dict(rows))
    assert table == CountTable("kz", 0, 4, dict(reversed(rows)))
    assert table != CountTable("kz", 0, 4, dict(rows[:2]))
    assert table != CountTable("kz", 0, 4, {**dict(rows), (0, 3, 1, 1): 4})


def test_count_table_equality_compares_the_range_not_the_engine():
    assert CountTable("kz", 3, 5, {}) != CountTable("kz", 3, 6, {})
    assert CountTable("kz", 3, 5, {}) != CountTable("kz", 2, 5, {})
    census = RootedCensus(3, 6)
    assert census.table(3, max_darts=5) != census.table(3, max_darts=6)
    assert census.table(1, max_darts=5) != census.table(1, max_darts=6)
    rows = {(0, 3, 1, 1): 3}
    assert CountTable("kz", 0, 4, rows) == CountTable("seq", 0, 4, rows)


def test_count_table_reads_outside_its_range_raise():
    census = RootedCensus(3, 8)
    table = census.table(1, max_darts=5)
    assert census.total(1, 8) == 131307
    for g, t in ((1, 8), (1, 6), (1, 0), (0, 3), (2, 3)):
        with pytest.raises(NotFilledError):
            table.total(g, t)
        with pytest.raises(NotFilledError):
            table.count(g, t, 1, 1)
    with pytest.raises(NotFilledError):
        census.table(1).count(0, 3, 1, 1)
    # inside the range an absent key still reads 0
    assert table.count(1, 5, 9, 9) == 0
    assert table.total(1, 1) == 0 and table.total(1, 3) == census.total(1, 3) > 0


@pytest.mark.parametrize("key,count,error", [
    ((0, 4, 2, 2), -1, NegativeCoefficientError),
    ((0, 4, 2, 2), 0, CensusError),
    ((1, 3, 1, 1), 1, CensusError),    # a valid key of another genus
    ((0, 0, 1, 0), 1, CensusError),    # the empty hypermap: no darts
    ((0, 5, 3, 3), 1, CensusError),    # past max_darts
    ((0, 4, 4, 4), 1, CensusError),    # no face count can satisfy the relation
    ((0, 4, 2, 2), 1.5, CensusError),
    ((0, 4, 2, 2), 2.0, CensusError),  # integral, but not an int
    ((0, 4, 2, 2), True, CensusError),
], ids=["negative", "zero", "other-genus", "no-darts", "past-max-darts", "invalid-key",
        "fractional-count", "float-count", "bool-count"])
def test_count_table_rejects_bad_rows(key, count, error):
    with pytest.raises(error):
        CountTable("kz", 0, 4, {(0, 4, 1, 1): 1, key: count})


@pytest.mark.parametrize("genus,max_darts", [(-1, 3), (0, 0), (2, -1)])
def test_count_table_refuses_a_range_that_cannot_exist(genus, max_darts):
    with pytest.raises(CensusError):
        CountTable("kz", genus, max_darts, {})


def test_count_table_accepts_exactly_the_valid_keys():
    """The constructor's inline row check is validate_hypermap_key's predicate
    (f from the genus relation), with one error class for every rejection."""
    for g in range(-1, 4):
        for t in range(1, 9):
            for v in range(-1, 11):
                for e in range(-1, 11):
                    key = (g, t, v, e)
                    valid = validate_hypermap_key(*key, faces_from_key(*key))
                    try:
                        table = CountTable("kz", g, 8, {key: 1})
                    except CensusError as exc:
                        assert not valid, key
                        assert type(exc) is CensusError
                        assert str(exc) == f"invalid key (g={g}, t={t}, v={v}, e={e})"
                    else:
                        assert valid, key
                        assert table.count(*key) == 1
