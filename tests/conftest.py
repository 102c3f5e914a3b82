import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the bruteforce helpers

from hypermap_census import RootedCensus, SequencedCensus

FIXTURES_DIR = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def census14() -> RootedCensus:
    """Rooted census covering the full printed range (genus 6, 14 darts)."""
    return RootedCensus(6, 14)


@pytest.fixture(scope="session")
def seq() -> SequencedCensus:
    """Shared sequenced-recurrence evaluator (memo reuse across tests)."""
    return SequencedCensus()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    assert FIXTURES_DIR.is_dir(), "fixtures/ directory missing"
    return FIXTURES_DIR


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every test away from the user's real table cache."""
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(tmp_path / "cache"))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HYPERMAP_DEEP"):
        return
    skip = pytest.mark.skip(reason="slow test at extended bounds; set HYPERMAP_DEEP=1")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)
