"""Pin the rooted and sensed tables at genus <= 11 and 30 darts.

The fixtures stop at genus 6 and 14 darts.  These digests were taken from the
unreduced fill (every coefficient computed, no symmetry used) and the sensed
sum without branch-point bounds, so they check the faster engines on every
count up to the deep benchmark's bounds.  Each digest is the first 16 hex
digits of the sha256 of a table's sorted rows, one ``(g, t, v, e) count`` a
line, so it does not depend on the order of insertion.

Further pins, also recorded before the sensed sum was restricted to canonical
keys and the trivariate forms were solved at order N - 3: the trivariate
series of genus <= 2 at total degrees 1-4 (where N - 3 <= 1) and 16, and,
under the ``deep`` mark, the sensed tables of genus <= 14 at 40 darts, where
the branch periods L and so the sum's ceiling offsets reach further.  The
trivariate series at total degree 20 were pinned before they were built in
the symmetric coordinates x+y+u, xy+yu+ux, xyu.
"""

import hashlib

import pytest

from hypermap_census import RootedCensus, sensed_table
from hypermap_census.series import hg_trivariate

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


TRIVARIATE = {
    1: ["e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"],
    2: ["e3b0c44298fc1c14", "e3b0c44298fc1c14", "e3b0c44298fc1c14"],
    3: ["973e74d0777623c6", "973e74d0777623c6", "ebe9e039b5fac5c2"],
    4: ["a2c9625a7ab8c554", "37de58245e766a6e", "163788bf20747619"],
    16: ["1538152776754640", "83f11341ea3dcdaf", "6486f897a1556fc1"],
}

DEEP_GENUS = 14
DEEP_DARTS = 40
SENSED_DEEP = [
    "f7f2784efadabb62", "a576724327f21e19", "2c412e6340fe81b7", "743b788b2be380dc",
    "7dccd4a0081422da", "f236012060bf5fe2", "4f90c13bd4899a5d", "7ecb70e56cb1f3bb",
    "08658b7dc5d20fb0", "b79e6b0e5f9bc6c9", "b612bfc5b18dbd34", "9b43a19262410359",
    "55aea5475b168509", "f5c4fcfabf5f231c", "89e950aa6a1b3469",
]


@pytest.mark.parametrize("order", sorted(TRIVARIATE))
@pytest.mark.parametrize("g", range(3))
def test_trivariate_series_digest(g, order):
    rows = "\n".join(f"{k} {c}" for k, c in sorted(hg_trivariate(g, order).d.items()))
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == TRIVARIATE[order][g]


TRIVARIATE_20 = ["b933ae3f4df8e27b", "a9826a16b96078ee", "86416598c0d49fd8"]


@pytest.mark.parametrize("g", range(3))
def test_trivariate_series_digest_at_order_20(g):
    rows = "\n".join(f"{k} {c}" for k, c in sorted(hg_trivariate(g, 20).d.items()))
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == TRIVARIATE_20[g]


@pytest.fixture(scope="module")
def census40():
    return RootedCensus(DEEP_GENUS, DEEP_DARTS)


@pytest.mark.deep
@pytest.mark.parametrize("G", range(DEEP_GENUS + 1))
def test_sensed_table_digest_at_40_darts(census40, G):
    assert _digest(sensed_table(G, DEEP_DARTS, census40)) == SENSED_DEEP[G]
