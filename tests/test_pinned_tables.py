"""Pin the rooted and sensed tables at genus <= 11 and 30 darts.

The fixtures stop at genus 6 and 14 darts.  These digests were taken from the
unreduced fill (every coefficient computed, no symmetry used) and the sensed
sum without branch-point bounds, so they check the faster engines on every
count up to the deep benchmark's bounds.  Each digest is the first 16 hex
digits of the sha256 of a table's sorted rows, one ``(g, t, v, e) count`` a
line, so it does not depend on the order of insertion.
"""

import hashlib

import pytest

from hypermap_census import RootedCensus, sensed_table

MAX_GENUS = 11
MAX_DARTS = 30

ROOTED = [
    "161eee296d3d9454", "61968e5e6ce1ea51", "b042fd7b6cf04ab4", "6840c799fcdaf9e3",
    "01022c6e7c0109b5", "8a86172332b69209", "d3eec493783495e8", "835f4c241254f799",
    "5df0346210a84254", "9dcc9ac294dd7dfd", "cfd4930a487bcd18", "7dc1fcdafadeea02",
]
SENSED = [
    "1681c8c76913332a", "80bb5b656cb1b9cc", "85f41ac6fbcc62b8", "266d14e59833b782",
    "c641762a40c7be9a", "721627b9fd2e5a03", "39b0d028974e09bc", "1d385ef95fad3b05",
    "e8076a7f8c964696", "da11810738aa924f", "cd294b95689afb91", "de4a2d266a00b970",
]


def _digest(table) -> str:
    rows = "\n".join(f"{k} {c}" for k, c in sorted(table.items()))
    return hashlib.sha256(rows.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def census():
    return RootedCensus(MAX_GENUS, MAX_DARTS)


@pytest.mark.parametrize("g", range(MAX_GENUS + 1))
def test_rooted_table_digest(census, g):
    assert _digest(census.table(g)) == ROOTED[g]


@pytest.mark.parametrize("G", range(MAX_GENUS + 1))
def test_sensed_table_digest(census, G):
    assert _digest(sensed_table(G, MAX_DARTS, census)) == SENSED[G]
