import zlib

import pytest

from hypermap_census import RootedCensus
from hypermap_census import cache
from hypermap_census.cli import main
from hypermap_census.fixtures import (
    FixtureFormatError,
    FixtureRow,
    FixtureSum,
    discover_fixtures,
    parse_table,
    render_json,
    render_table,
    table_rows,
)

SAMPLE = """\
   d   v   e   f   h
   3   1   1   3   1
   3   1   2   2   3

   3         sum   4
"""


def test_parse_table_rows_and_sums():
    rows, sums = parse_table(SAMPLE)
    assert rows == [FixtureRow(3, 1, 1, 3, 1), FixtureRow(3, 1, 2, 2, 3)]
    assert sums == [FixtureSum(3, 4)]


def test_parse_table_reports_source_and_line():
    with pytest.raises(FixtureFormatError, match=r"bad\.txt:2"):
        parse_table("   d   v   e   f   h\n   3  sum\n", source="bad.txt")
    with pytest.raises(FixtureFormatError, match="5 columns"):
        parse_table("1 2 3\n")
    with pytest.raises(FixtureFormatError, match="unparseable"):
        parse_table("1 2 x 3 4\n")   # corrupted rows must not pass as headers


def test_render_parse_round_trip(census14):
    table = census14.table(1, max_darts=7)
    rows, sums = parse_table(render_table(table, 1))
    parsed = {(r.darts, r.vertices, r.hyperedges): r.count for r in rows}
    stored = {(t, v, e): c for (g, t, v, e), c in table.items()}
    assert parsed == stored
    assert {s.darts: s.total for s in sums} == \
        {d: table.total(1, d) for d in range(3, 8)}


def test_render_matches_fixture_after_whitespace_normalization(census14, fixtures_dir):
    def normalize(text):
        return [" ".join(line.split()) for line in text.splitlines() if line.split()]

    table = census14.table(1)
    rendered = render_table(table, 1)
    fixture_text = (fixtures_dir / "rooted-g1.txt").read_text()
    assert normalize(rendered) == normalize(fixture_text)


def test_rows_are_in_printed_order(census14):
    rows = table_rows(census14.table(0, max_darts=4), 0)
    order = [(r.darts, r.faces, r.vertices) for r in rows]
    assert order == sorted(order, key=lambda k: (k[0], -k[1], k[2]))


def test_render_json_uses_string_counts(census14):
    import json
    data = json.loads(render_json(census14.table(6), 6))
    assert all(set(row) == {"genus", "darts", "vertices", "hyperedges",
                            "faces", "count"} for row in data)
    big = next(r for r in data if r["darts"] == 14 and r["vertices"] == 1
               and r["hyperedges"] == 1)
    assert big["count"] == "2699672832"
    assert all(isinstance(r["count"], str) for r in data)


def test_discover_fixtures(fixtures_dir):
    found = discover_fixtures(fixtures_dir)
    kinds = {(kind, genus) for kind, genus, _ in found}
    assert ("rooted", 0) in kinds and ("unrooted", 6) in kinds
    assert len(found) == 14


# -- cache ---------------------------------------------------------------

def test_cache_round_trip(census14):
    table = census14.table(2, max_darts=9)
    path = cache.save_table(table, 2)
    assert path.exists()
    loaded = cache.load_table(path)
    assert loaded == table
    assert loaded.engine == "kz" and loaded.max_darts == 9
    assert cache.load_cached("kz", 2, 9) == table
    assert cache.load_cached("kz", 2, 10) is None


def test_cache_respects_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache.cache_dir() == tmp_path / "elsewhere"
    table = RootedCensus(0, 3).table(0)
    cache.save_table(table, 0)
    assert (tmp_path / "elsewhere" / "kz-g0-d3.counts").exists()


def test_cache_header_and_entries(census14):
    cache.save_table(census14.table(1, max_darts=5), 1)
    entries = list(cache.cache_entries())
    assert len(entries) == 1
    path, header = entries[0]
    assert header == {"engine": "kz", "genus": "1", "max-darts": "5"}
    assert cache.read_header(path) == header


def test_cache_ignores_foreign_files(tmp_path):
    root = cache.cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    (root / "junk.counts").write_text("not a cache file\n")
    assert cache.read_header(root / "junk.counts") is None
    assert list(cache.cache_entries()) == []


def _resealed(lines):
    """The lines with a trailer that matches their (damaged) rows."""
    rows = lines[2:-1]
    body = "".join(row + "\n" for row in rows)
    return lines[:-1] + [f"# rows={len(rows)} crc32={zlib.crc32(body.encode()):08x}"]


DAMAGE = {
    "truncated": lambda lines: lines[:-3],
    "duplicated-line": lambda lines: lines[:3] + lines[2:],
    "garbage-line": lambda lines: lines[:3] + ["not a row"] + lines[3:],
    "duplicated-line-resealed": lambda lines: _resealed(lines[:3] + lines[2:]),
    "garbage-line-resealed": lambda lines: _resealed(lines[:3] + ["1 6 2 x 7"] + lines[3:]),
    "header-of-another-table":
        lambda lines: [lines[0], lines[1].replace("max-darts=6", "max-darts=5")] + lines[2:],
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_damaged_cache_file_is_recomputed(damage, capsys):
    argv = ["rooted", "--genus", "1", "--max-darts", "6"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert "6 sum 1611" in [" ".join(line.split()) for line in fresh.splitlines()]
    path = cache.table_path("kz", 1, 6)
    path.write_text("\n".join(DAMAGE[damage](path.read_text().splitlines())) + "\n")
    assert cache.load_cached("kz", 1, 6) is None
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert len(err.splitlines()) == 1 and str(path) in err
    assert cache.load_cached("kz", 1, 6) == RootedCensus(1, 6).table(1)   # rewritten
    assert capsys.readouterr().err == ""
