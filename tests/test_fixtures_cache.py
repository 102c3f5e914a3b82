import zlib

import pytest

from hypermap_census import RootedCensus, sensed_table
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


def test_parse_table_rejects_non_numeric_line_after_first_row():
    assert parse_table("header one\nheader two\n" + SAMPLE)[0] == parse_table(SAMPLE)[0]
    text = SAMPLE.replace("   3   1   2   2   3\n", "   3   1   2   2   3\nwhat is this\n")
    with pytest.raises(FixtureFormatError, match=r"bad\.txt:4: non-numeric"):
        parse_table(text, source="bad.txt")
    with pytest.raises(FixtureFormatError, match=r"bad\.txt:6: non-numeric"):
        parse_table(SAMPLE + "d v e f h\n", source="bad.txt")   # after a sum line


def test_parse_table_rejects_rows_without_darts_and_negative_fields():
    for line in ("   0   1   1   1   1", "  -1   1   1   1   1", "   3   1  -2   2   3",
                 "   3   1   2   2  -3", "   0         sum   4", "   3         sum  -4"):
        with pytest.raises(FixtureFormatError, match=r"bad\.txt:2: need darts >= 1"):
            parse_table("   d   v   e   f   h\n" + line + "\n", source="bad.txt")
    for line in ("   3   1   1   3   --1", "   3   1   1   3   \u00b2", "   3  sum  +4"):
        with pytest.raises(FixtureFormatError, match=r"bad\.txt:2: (unparseable|malformed)"):
            parse_table("   d   v   e   f   h\n" + line + "\n", source="bad.txt")


def test_parse_table_rejects_fields_past_the_integer_digit_limit():
    huge = "9" * 5000   # more digits than int() converts from a string
    for line in (f"   3   1   1   3   {huge}", f"   3         sum   {huge}"):
        with pytest.raises(FixtureFormatError, match=r"bad\.txt:2: .*digit limit"):
            parse_table("   d   v   e   f   h\n" + line + "\n", source="bad.txt")


def test_render_parse_round_trip(census14):
    table = census14.table(1, max_darts=7)
    rows, sums = parse_table(render_table(table))
    parsed = {(r.darts, r.vertices, r.hyperedges): r.count for r in rows}
    stored = {(t, v, e): c for (g, t, v, e), c in table.items()}
    assert parsed == stored
    assert {s.darts: s.total for s in sums} == \
        {d: table.total(1, d) for d in range(3, 8)}


def test_render_matches_fixture_after_whitespace_normalization(census14, fixtures_dir):
    def normalize(text):
        return [" ".join(line.split()) for line in text.splitlines() if line.split()]

    table = census14.table(1)
    rendered = render_table(table)
    fixture_text = (fixtures_dir / "rooted-g1.txt").read_text()
    assert normalize(rendered) == normalize(fixture_text)


def test_rows_are_in_printed_order(census14):
    rows = table_rows(census14.table(0, max_darts=4))
    order = [(r.darts, r.faces, r.vertices) for r in rows]
    assert order == sorted(order, key=lambda k: (k[0], -k[1], k[2]))


def test_render_json_uses_string_counts(census14):
    import json
    data = json.loads(render_json(census14.table(6)))
    assert all(set(row) == {"genus", "darts", "vertices", "hyperedges",
                            "faces", "count"} for row in data)
    big = next(r for r in data if r["darts"] == 14 and r["vertices"] == 1
               and r["hyperedges"] == 1)
    assert big["count"] == "2699672832"
    assert all(isinstance(r["count"], str) for r in data)


def test_render_json_rows_carry_the_table_genus(census14):
    import json
    data = json.loads(render_json(sensed_table(2, 9, census14)))
    assert data and {r["genus"] for r in data} == {2}


def test_discover_fixtures(fixtures_dir):
    found = discover_fixtures(fixtures_dir)
    kinds = {(kind, genus) for kind, genus, _ in found}
    assert ("rooted", 0) in kinds and ("unrooted", 6) in kinds
    assert len(found) == 14


# -- cache ---------------------------------------------------------------

def test_cache_round_trip(census14):
    table = census14.table(2, max_darts=9)
    assert cache.save_table(table, 2) == cache.table_path("kz", 2, 9)
    loaded = cache.load_cached("kz", 2, 9)
    assert loaded == table
    assert (loaded.engine, loaded.genus, loaded.max_darts) == ("kz", 2, 9)
    assert cache.load_cached("kz", 2, 10) is None


def test_save_table_refuses_another_genus():
    table = RootedCensus(1, 5).table(1)
    with pytest.raises(ValueError, match="genus 2 given for a table of genus 1"):
        cache.save_table(table, 2)
    assert not cache.cache_dir().exists()
    assert cache.load_cached("kz", 2, 5) is None


def test_cache_respects_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache.cache_dir() == tmp_path / "elsewhere"
    table = RootedCensus(0, 3).table(0)
    cache.save_table(table, 0)
    assert (tmp_path / "elsewhere" / "kz-g0-d3.counts").exists()


def test_cache_header_and_entries(census14):
    path = cache.save_table(census14.table(1, max_darts=5), 1)
    assert path.read_text().splitlines()[:2] == [
        f"# hypermap-census cache v{cache.FORMAT_VERSION}",
        "# engine=kz genus=1 max-darts=5"]
    assert list(cache.cache_entries()) == [(path, "ok")]


def test_cache_ignores_foreign_files(tmp_path):
    root = cache.cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    (root / "notes.txt").write_text("not a cache file\n")
    assert list(cache.cache_entries()) == []
    (root / "junk.counts").write_text("not a cache file\n")
    assert list(cache.cache_entries()) == [
        (root / "junk.counts", f"not a v{cache.FORMAT_VERSION} cache file")]


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
    "rows-of-another-genus-resealed":
        lambda lines: _resealed(lines[:2] + ["0" + row[1:] for row in lines[2:-1]] + lines[-1:]),
    "row-past-max-darts-resealed":
        lambda lines: _resealed(lines[:-1] + ["1 7 1 1 5"] + lines[-1:]),
    # rows int() reads but save_table never writes
    "underscore-in-count-resealed":
        lambda lines: _resealed(lines[:-2] + [lines[-2] + "_0"] + lines[-1:]),
    "plus-sign-resealed":
        lambda lines: _resealed(lines[:-2] + ["+" + lines[-2]] + lines[-1:]),
    "non-ascii-digit-resealed":
        lambda lines: _resealed(lines[:-2] + ["\u0661" + lines[-2][1:]] + lines[-1:]),
    "plus-sign-in-header": lambda lines: [lines[0], lines[1].replace("=1", "=+1")] + lines[2:],
    "leading-zero-resealed":
        lambda lines: _resealed(lines[:-2] + ["01" + lines[-2][1:]] + lines[-1:]),
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


def test_cache_refuses_intact_files_of_tables_that_cannot_exist(capsys):
    root = cache.cache_dir()
    root.mkdir(parents=True)
    for genus, max_darts in ((-1, 3), (0, 0)):
        cache.table_path("kz", genus, max_darts).write_text(
            f"{cache._MAGIC}\n# engine=kz genus={genus} max-darts={max_darts}\n"
            f"# rows=0 crc32={zlib.crc32(b''):08x}\n")
        assert cache.load_cached("kz", genus, max_darts) is None
    assert main(["cache-info"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  kz-g-1-d3.counts: not served, no table of genus -1 with 1 to 3 darts",
        "  kz-g0-d0.counts: not served, no table of genus 0 with 1 to 0 darts",
    ]


def test_cache_info_reports_files_it_will_not_serve(capsys):
    assert main(["rooted", "--genus", "1", "--max-darts", "6"]) == 0
    assert main(["rooted", "--genus", "0", "--max-darts", "3"]) == 0
    assert main(["rooted", "--genus", "0", "--max-darts", "4"]) == 0
    capsys.readouterr()
    truncated = cache.table_path("kz", 1, 6)
    truncated.write_text("\n".join(truncated.read_text().splitlines()[:-3]) + "\n")
    old_format = cache.table_path("kz", 0, 3)
    lines = old_format.read_text().splitlines()
    old_format.write_text("\n".join(["# hypermap-census cache v1"] + lines[1:-1]) + "\n")
    intact = cache.table_path("kz", 0, 4)
    cache.table_path("kz", 0, 5).write_text(intact.read_text())
    assert main(["cache-info"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == [
        "  kz-g0-d3.counts: not served, not a v2 cache file",
        "  kz-g0-d4.counts: ok",
        "  kz-g0-d5.counts: not served, its header names another table",
        "  kz-g1-d6.counts: not served, row count or checksum does not match the trailer",
    ]


# a file's name is its identity: an intact kz-g1-d6 file saved under another
# name, that of another table (engine, genus, dart count) or of none
MISNAMED = {
    "sensed-g1-d6.counts": ("sensed", 1, 6),
    "kz-g2-d6.counts": ("kz", 2, 6),
    "kz-g1-d5.counts": ("kz", 1, 5),
    "kz-g1-d7.counts": ("kz", 1, 7),
    "kz-g01-d6.counts": None,
    "backup.counts": None,
}


@pytest.mark.parametrize("name", MISNAMED)
def test_cache_file_under_another_name_is_refused(name, capsys):
    assert main(["rooted", "--genus", "1", "--max-darts", "6"]) == 0
    path = cache.cache_dir() / name
    path.write_text(cache.table_path("kz", 1, 6).read_text())
    capsys.readouterr()
    assert main(["cache-info"]) == 0
    assert f"  {name}: not served, its header names another table" in \
        capsys.readouterr().out.splitlines()
    if MISNAMED[name] is None:
        return
    engine, genus, max_darts = MISNAMED[name]
    assert cache.table_path(engine, genus, max_darts) == path
    assert cache.load_cached(engine, genus, max_darts) is None
    assert len(capsys.readouterr().err.splitlines()) == 1
    argv = ["unrooted" if engine == "sensed" else "rooted",
            "--genus", str(genus), "--max-darts", str(max_darts)]
    assert main(argv + ["--no-cache"]) == 0
    fresh = capsys.readouterr().out
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == fresh
    assert len(err.splitlines()) == 1 and str(path) in err
    assert dict(cache.cache_entries())[path] == "ok"   # rewritten
    assert cache.load_cached(engine, genus, max_darts) is not None
    assert capsys.readouterr().err == ""
