import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypermap_census.cli import (CROSSCHECK_DEGREE_LISTS, check_multiroot,
                                 check_parameterizations, check_sandwich,
                                 check_seq_vs_kz, check_trivariate, check_univariate,
                                 main)


def norm_lines(text):
    return [" ".join(line.split()) for line in text.splitlines() if line.split()]


def test_rooted_genus1(capsys):
    assert main(["rooted", "--genus", "1", "--max-darts", "4"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert "4 1 2 1 5" in lines
    assert "4 sum 15" in lines


def test_rooted_single_dart(capsys):
    assert main(["rooted", "--genus", "0", "--max-darts", "1"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert lines == ["d v e f h", "1 1 1 1 1", "1 sum 1"]


def test_rooted_empty_table_for_high_genus(capsys):
    assert main(["rooted", "--genus", "7", "--max-darts", "3"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert lines == ["d v e f h"]


def test_rooted_json(capsys):
    assert main(["rooted", "--genus", "0", "--max-darts", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"genus": 0, "darts": 2, "vertices": 1, "hyperedges": 1,
            "faces": 2, "count": "1"} in data
    assert len(data) == 4


def test_rooted_seq_engine_matches_kz(capsys):
    assert main(["rooted", "--genus", "1", "--max-darts", "5",
                 "--engine", "seq"]) == 0
    seq_out = norm_lines(capsys.readouterr().out)
    assert main(["rooted", "--genus", "1", "--max-darts", "5", "--no-cache"]) == 0
    kz_out = norm_lines(capsys.readouterr().out)
    assert seq_out == kz_out


def test_seq_engine_dart_cap():
    with pytest.raises(SystemExit) as exc:
        main(["rooted", "--genus", "0", "--max-darts", "11", "--engine", "seq"])
    assert exc.value.code == 2


def test_bounds_cap_without_deep():
    with pytest.raises(SystemExit) as exc:
        main(["rooted", "--genus", "0", "--max-darts", "31"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["series", "--genus", "0", "--max-darts", "31"],
    ["crosscheck", "--max-darts", "31"],
    ["crosscheck", "--max-genus", "11"],
    ["rooted", "--genus", "0", "--max-darts", "12", "--engine", "seq", "--seq-cap", "12"],
])
def test_out_of_bounds_is_one_line_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_series_deep_raises_the_dart_cap(capsys):
    assert main(["series", "--genus", "0", "--max-darts", "31", "--deep"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert len(lines) == 31 and lines[4] == "5 288"


def test_unrooted_genus0(capsys):
    assert main(["unrooted", "--genus", "0", "--max-darts", "4"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert "4 2 2 2 5" in lines
    assert "4 sum 20" in lines
    assert lines[0] == "d v e f H"


def test_unrooted_high_genus(capsys):
    assert main(["unrooted", "--genus", "6", "--max-darts", "13"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert "13 1 1 1 5263764" in lines
    assert "13 sum 5263764" in lines


def test_unrooted_uses_cache(capsys):
    assert main(["unrooted", "--genus", "2", "--max-darts", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["unrooted", "--genus", "2", "--max-darts", "6"]) == 0
    assert capsys.readouterr().out == first
    from hypermap_census import cache
    assert cache.load_cached("sensed", 2, 6) is not None


def test_no_cache_writes_nothing():
    from hypermap_census import cache
    assert main(["rooted", "--genus", "0", "--max-darts", "3", "--no-cache"]) == 0
    assert list(cache.cache_entries()) == []


def test_series_table(capsys):
    assert main(["series", "--genus", "0", "--max-darts", "5"]) == 0
    lines = norm_lines(capsys.readouterr().out)
    assert lines == ["1 1", "2 3", "3 12", "4 56", "5 288"]


def test_series_json(capsys):
    assert main(["series", "--genus", "6", "--max-darts", "14",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"genus": 6, "darts": 13, "count": "68428800"} in data


def test_series_rejects_genus_beyond_closed_forms():
    with pytest.raises(SystemExit) as exc:
        main(["series", "--genus", "7", "--max-darts", "5"])
    assert exc.value.code == 2


def test_verify_full_fixture_set(capsys, fixtures_dir):
    assert main(["verify", "--fixtures", str(fixtures_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def _count_fills(monkeypatch):
    """Patch ``cli.RootedCensus`` to record each fill's (max_genus, max_darts)."""
    from hypermap_census import cli

    fills = []

    class CountedCensus(cli.RootedCensus):
        def __init__(self, max_genus, max_darts):
            fills.append((max_genus, max_darts))
            super().__init__(max_genus, max_darts)

    monkeypatch.setattr(cli, "RootedCensus", CountedCensus)
    return fills


def test_verify_fills_one_census(capsys, fixtures_dir, monkeypatch):
    fills = _count_fills(monkeypatch)
    assert main(["verify", "--fixtures", str(fixtures_dir)]) == 0
    assert fills == [(6, 14)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:-1]] == [
        f"{kind}-g{g}.txt" for kind in ("rooted", "unrooted") for g in range(7)]


def test_verify_checks_each_fixture_at_its_own_bounds(tmp_path, capsys, fixtures_dir,
                                                      monkeypatch):
    # rooted-g2 cut to 9 darts beside the whole (14-dart) unrooted-g0
    lines = (fixtures_dir / "rooted-g2.txt").read_text().splitlines(keepends=True)
    cut = "".join(line for line in lines
                  if not line.split() or not line.split()[0].isdigit()
                  or int(line.split()[0]) <= 9)
    texts = {"rooted-g2.txt": cut,
             "unrooted-g0.txt": (fixtures_dir / "unrooted-g0.txt").read_text()}
    alone = {}
    for name, text in texts.items():
        one = tmp_path / name.split(".")[0]
        one.mkdir()
        (one / name).write_text(text)
        assert main(["verify", "--fixtures", str(one)]) == 0
        alone[name] = capsys.readouterr().out.splitlines()[:-1]
    both = tmp_path / "both"
    both.mkdir()
    for name, text in texts.items():
        (both / name).write_text(text)
    fills = _count_fills(monkeypatch)
    assert main(["verify", "--fixtures", str(both)]) == 0
    assert fills == [(2, 14)]
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == alone["rooted-g2.txt"] + alone["unrooted-g0.txt"]
    assert alone["rooted-g2.txt"] == ["rooted-g2.txt: 35 rows + 5 sums OK"]


@pytest.mark.parametrize("name, text, error", [
    ("unrooted-g3.txt", "   7   1   1   1   1   1\n", "parse error: "),
    ("unrooted-g3.txt", None, "parse error: "),   # a directory, which cannot be read
    ("unrooted-g11.txt", "  23   1   1   1   1\n",
     "hypermap-census: error: bounds exceed genus 10 / 30 darts"),
], ids=["malformed", "unreadable", "beyond-caps"])
def test_verify_bad_fixture_after_a_good_one_prints_and_fills_nothing(
        name, text, error, tmp_path, capsys, fixtures_dir, monkeypatch):
    (tmp_path / "rooted-g0.txt").write_text((fixtures_dir / "rooted-g0.txt").read_text())
    if text is None:
        (tmp_path / name).mkdir()
    else:
        (tmp_path / name).write_text(text)
    fills = _count_fills(monkeypatch)
    try:
        code = main(["verify", "--fixtures", str(tmp_path)])
    except SystemExit as exc:   # argparse's usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and fills == [] and captured.out == ""
    err = captured.err.splitlines()
    if error.startswith("parse error"):
        assert len(err) == 1 and name in err[0]
    else:
        assert err[0].startswith("usage: ") and [l for l in err if "error:" in l] == [error]
    assert err[-1].startswith(error)


def test_verify_detects_single_perturbed_value(tmp_path, capsys, fixtures_dir):
    text = (fixtures_dir / "rooted-g6.txt").read_text()
    assert "68428800" in text
    (tmp_path / "rooted-g6.txt").write_text(text.replace("68428800", "68428801", 1))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1
    assert "d=13" in fail_lines[0]


def test_verify_detects_single_perturbed_sum(tmp_path, capsys, fixtures_dir):
    text = (fixtures_dir / "rooted-g1.txt").read_text()
    assert text.count("   6         sum   1611\n") == 1
    (tmp_path / "rooted-g1.txt").write_text(
        text.replace("   6         sum   1611\n", "   6         sum   1612\n"))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("FAIL ")] == [
        "FAIL rooted-g1.txt: d=6 sum: fixture 1612, computed 1611"]


def test_verify_detects_missing_row(tmp_path, capsys, fixtures_dir):
    lines = (fixtures_dir / "rooted-g0.txt").read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.split() != ["4", "2", "2", "2", "17"]]
    assert len(kept) == len(lines) - 1
    (tmp_path / "rooted-g0.txt").write_text("".join(kept))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL ")]
    assert fail_lines == ["FAIL rooted-g0.txt: d=4 v=2 e=2 f=2: missing row, computed 17"]
    assert "1 failures" in out


def test_verify_fixture_beyond_caps_is_usage_error(tmp_path):
    (tmp_path / "rooted-g11.txt").write_text("  23   1   1   1   1\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2


def test_verify_empty_directory_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2


def test_verify_fixtures_naming_a_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "not-a-dir").write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixtures", str(tmp_path / "not-a-dir")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ")
    errors = [line for line in err if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("hypermap-census: error: cannot read fixtures directory")


def test_verify_ignores_a_fixture_name_with_a_trailing_newline(tmp_path, capsys,
                                                                fixtures_dir):
    text = (fixtures_dir / "rooted-g1.txt").read_text()
    (tmp_path / "rooted-g1.txt\n").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: no fixture files" in captured.err


def test_verify_ignores_fixture_names_with_non_ascii_digits(tmp_path, fixtures_dir):
    text = (fixtures_dir / "rooted-g1.txt").read_text()
    (tmp_path / "rooted-g\u0661.txt").write_text(text)   # ARABIC-INDIC DIGIT ONE
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixtures", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("damage", ["directory", "not-utf-8"])
def test_verify_unreadable_fixture_is_one_line_parse_error(damage, tmp_path, capsys):
    path = tmp_path / "rooted-g0.txt"
    if damage == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"   d   v   e   f   h\n   1   1   1   1   \xff\n")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: ") and len(err.splitlines()) == 1


def test_verify_rejects_non_numeric_line_after_first_row(tmp_path, capsys, fixtures_dir):
    lines = (fixtures_dir / "rooted-g0.txt").read_text().splitlines(keepends=True)
    (tmp_path / "rooted-g0.txt").write_text("".join(lines[:4] + ["what is this\n"] + lines[4:]))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "rooted-g0.txt:5" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("line", [
    "   0   1   1   1   1",
    "  -1   1   1   1   1",
    "   2  -1   1   2   1",
    "   1   1   1   1  -1",
    "   0         sum   1",
    "   1         sum  -1",
    "   1   1   1   1  --1",
], ids=["zero-darts", "negative-darts", "negative-vertices", "negative-count",
        "zero-dart-sum", "negative-sum", "double-minus"])
def test_verify_row_without_darts_or_with_negative_field_is_parse_error(
        line, tmp_path, capsys):
    (tmp_path / "rooted-g0.txt").write_text("   d   v   e   f   h\n" + line + "\n")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "empty fixture" not in captured.out
    assert captured.err.startswith("parse error: ") and "rooted-g0.txt:2" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("line", ["   1   1   1   1   {}", "   1         sum   {}"],
                         ids=["row", "sum"])
def test_verify_field_past_the_integer_digit_limit_is_parse_error(line, tmp_path, capsys):
    (tmp_path / "rooted-g0.txt").write_text(
        "   d   v   e   f   h\n" + line.format("1" * 5000) + "\n")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "rooted-g0.txt:2" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_fixture_with_no_rows_is_empty(tmp_path, capsys):
    (tmp_path / "rooted-g0.txt").write_text("   d   v   e   f   h\n")
    assert main(["verify", "--fixtures", str(tmp_path)]) == 0
    assert "rooted-g0.txt: empty fixture" in capsys.readouterr().out


def test_crosscheck_small_bounds(capsys):
    assert main(["crosscheck", "--max-genus", "1", "--max-darts", "6"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") == 6


def test_crosscheck_series_only(capsys):
    assert main(["crosscheck", "--max-genus", "1", "--max-darts", "6",
                 "--only", "series"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


@pytest.mark.parametrize("bounds", [["--max-genus", "0", "--max-darts", "1"],
                                    ["--max-darts", "2", "--only", "series"]])
def test_crosscheck_that_compares_nothing_does_not_pass(bounds, capsys):
    assert main(["crosscheck"] + bounds) == 0
    out = capsys.readouterr().out.splitlines()
    assert "trivariate series vs rooted counts: nothing compared at these bounds" in out
    assert not [line for line in out if "PASS (0 comparisons)" in line]
    assert out[-1] == "crosscheck: no check failed, 1 compared nothing"


def test_crosscheck_caps_seq_genus(capsys):
    assert main(["crosscheck", "--max-genus", "4", "--max-darts", "4",
                 "--only", "seq"]) == 0
    out = capsys.readouterr().out
    assert "capped at genus 3" in out


def test_crosscheck_notes_the_seq_caps_only_when_seq_runs(capsys):
    argv = ["crosscheck", "--max-genus", "4", "--max-darts", "11"]
    for only, noted in (("orbifold", False), ("series", False), ("multiroot", True)):
        assert main(argv + ["--only", only]) == 0
        out = capsys.readouterr().out
        assert ("note: seq engine capped at 10 darts (requested 11)" in out) is noted, only
        assert ("note: seq engine capped at genus 3 (requested 4)" in out) is noted, only


def _off_by_one(base, method, key):
    """A subclass of ``base`` whose ``method`` reads one more at ``key`` only."""
    def perturbed(self, *args):
        return getattr(base, method)(self, *args) + (args == key)
    return type(f"OffByOne{base.__name__}", (base,), {method: perturbed})


def _wrong_at_genus_3(monkeypatch):
    """Make ``cli.hg_via_t`` give the genus-2 series for genus 3."""
    from hypermap_census import cli
    from hypermap_census.series import hg_via_t
    monkeypatch.setattr(cli, "hg_via_t",
                        lambda g, order: hg_via_t(2 if g == 3 else g, order))


def _sensed_with(monkeypatch, genus, key):
    """Make ``cli.sensed_table`` read one more at ``key`` of its genus-``genus``
    table."""
    from hypermap_census import cli
    from hypermap_census.core import CountTable
    from hypermap_census.orbifold import sensed_table

    def perturbed(G, max_darts, rooted):
        table = sensed_table(G, max_darts, rooted)
        if G != genus:
            return table
        counts = dict(table.items())
        counts[key] = counts.get(key, 0) + 1
        return CountTable(table.engine, G, max_darts, counts)
    monkeypatch.setattr(cli, "sensed_table", perturbed)


# one known comparison made wrong per case: (check on (rooted, seq), engine and
# method read wrong at one key, or a patch of the cli namespace; first failure)
BATTERY_FAILURES = {
    "seq vs kz": (lambda r, s: check_seq_vs_kz(r, s, 1, 5),
                  ("seq", "rooted", (1, 4, 2, 1)), ("seq vs kz", (1, 4, 2, 1))),
    "multiroot": (lambda r, s: check_multiroot(s, 1, 4, CROSSCHECK_DEGREE_LISTS),
                  ("seq", "multirooted_direct", (0, 3, 2, 2, 1, (1,))),
                  ("multiroot", (0, 3, 2, 2, 1, (1,)))),
    "univariate": (lambda r, s: check_univariate(r, 6),
                   ("rooted", "total", (2, 5)), ("series univariate", (2, 5))),
    "trivariate": (lambda r, s: check_trivariate(r, 2, 8),
                   ("rooted", "count", (1, 4, 1, 2, 1)), ("series trivariate", (1, 1, 2, 1))),
    "parameterization": (lambda r, s: check_parameterizations(8),
                         _wrong_at_genus_3, ("parameterization", (3,))),
    # a sensed count above its rooted one breaks the sandwich first ...
    "sandwich": (lambda r, s: check_sandwich(r, 1, 6),
                 lambda mp: _sensed_with(mp, 0, (0, 3, 1, 1)),
                 ("burnside sandwich", (0, 3, 1, 1, 3))),
    # ... and one where no rooted hypermap is (no hyperedge) only the second test
    "sensed exceeds rooted": (lambda r, s: check_sandwich(r, 1, 6),
                              lambda mp: _sensed_with(mp, 1, (1, 2, 1, 0)),
                              ("sensed exceeds rooted", (1, 2, 1, 0))),
}


@pytest.mark.parametrize("case", BATTERY_FAILURES)
def test_check_battery_reports_its_first_failure(case, monkeypatch):
    from hypermap_census.cli import RootedCensus, SequencedCensus
    check, wrong, first = BATTERY_FAILURES[case]
    rooted, seq = RootedCensus(6, 6), SequencedCensus()
    bad, n = check(rooted, seq)
    assert bad is None
    if callable(wrong):
        wrong(monkeypatch)
    else:
        engine, method, key = wrong
        if engine == "rooted":
            rooted = _off_by_one(RootedCensus, method, key)(6, 6)
        else:
            seq = _off_by_one(SequencedCensus, method, key)()
    assert check(rooted, seq) == (first, n)


def test_crosscheck_failure_is_exit_1(capsys, monkeypatch):
    _wrong_at_genus_3(monkeypatch)
    assert main(["crosscheck", "--max-genus", "1", "--max-darts", "6",
                 "--only", "series"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "parameterization equivalence (tau vs t): FAIL at ('parameterization', (3,))" in out
    assert out.count("crosscheck: 1 check(s) failed") == 1 and out[-1].startswith("crosscheck")


def test_series_whose_parameterizations_disagree_is_exit_1(capsys, monkeypatch):
    _wrong_at_genus_3(monkeypatch)
    assert main(["series", "--genus", "3", "--max-darts", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the two parameterizations disagree\n"


def test_census_error_is_one_line_and_exit_1(capsys, monkeypatch):
    from hypermap_census import cli
    from hypermap_census.core import InexactDivisionError

    def refuse(max_genus, max_darts):
        raise InexactDivisionError("coefficient 7 at g=1 d=4 (f=1, b=2) not divisible by 5")
    monkeypatch.setattr(cli, "RootedCensus", refuse)
    assert main(["rooted", "--genus", "1", "--max-darts", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: coefficient 7 at g=1 d=4 (f=1, b=2) not divisible by 5\n"


def test_cache_info(capsys):
    assert main(["rooted", "--genus", "0", "--max-darts", "3"]) == 0
    capsys.readouterr()
    assert main(["cache-info"]) == 0
    out = capsys.readouterr().out
    assert "kz-g0-d3.counts" in out and "cache directory" in out


@pytest.mark.parametrize("command", ["rooted", "unrooted"])
def test_cache_dir_that_is_a_file_is_one_warning(command, tmp_path, monkeypatch, capsys):
    argv = [command, "--genus", "1", "--max-darts", "4"]
    assert main(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    (tmp_path / "a-file").write_text("")
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(tmp_path / "a-file"))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err.startswith("warning: table not cached: ") and len(err.splitlines()) == 1


def test_directory_at_cache_file_path_is_warned_about(capsys):
    from hypermap_census import cache
    argv = ["rooted", "--genus", "1", "--max-darts", "4"]
    assert main(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    cache.table_path("kz", 1, 4).mkdir(parents=True)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    refused, not_saved = err.splitlines()   # the load refuses it, the save fails
    assert refused.startswith("warning: ignoring cache file ")
    assert not_saved.startswith("warning: table not cached: ")
    assert list(cache.cache_dir().glob("*.tmp")) == []


@pytest.mark.parametrize("unusable", [
    "name too long",
    pytest.param("no permission", marks=pytest.mark.skipif(
        os.geteuid() == 0, reason="root reads a directory without permission")),
])
@pytest.mark.parametrize("command", ["rooted", "unrooted"])
def test_unusable_cache_path_is_two_warnings(command, unusable, tmp_path, monkeypatch,
                                             capsys):
    argv = [command, "--genus", "1", "--max-darts", "4"]
    assert main(argv + ["--no-cache"]) == 0
    expected = capsys.readouterr().out
    if unusable == "name too long":
        root = tmp_path / ("a" * 300)
    else:
        root = tmp_path / "locked" / "cache"
        root.parent.mkdir()
        root.parent.chmod(0)
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(root))
    try:
        assert main(argv) == 0
    finally:
        if unusable == "no permission":
            root.parent.chmod(0o700)   # so that pytest can remove tmp_path
    out, err = capsys.readouterr()
    assert out == expected
    refused, not_saved = err.splitlines()   # the load refuses the path, the save fails
    assert refused.startswith("warning: ignoring cache file ")
    assert not_saved.startswith("warning: table not cached: ")


def test_cache_info_on_a_cache_dir_that_is_a_file(tmp_path, monkeypatch, capsys):
    from hypermap_census import cache
    (tmp_path / "a-file").write_text("")
    monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(tmp_path / "a-file"))
    assert list(cache.cache_entries()) == []
    assert main(["cache-info"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "no cached tables" and err == ""


def test_cache_info_on_a_name_too_long_is_one_error_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
               HYPERMAP_CACHE_DIR=str(tmp_path / ("a" * 300)))
    result = subprocess.run([sys.executable, "-m", "hypermap_census.cli", "cache-info"],
                            capture_output=True, env=env, text=True, timeout=60)
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_closed_stdout_pipe_is_exit_1_without_traceback():
    # -u writes each line at once, so the read below sees the first check's
    # line while later ones are still to be written into the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    argv = [sys.executable, "-u", "-m", "hypermap_census.cli", "crosscheck", "--only", "series"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, text=True) as proc:
        assert "PASS" in proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["rooted", "--genus", "0", "--max-darts", "3"],
    ["crosscheck", "--max-genus", "0", "--max-darts", "2"],
])
def test_stdout_write_error_is_one_line_and_exit_1(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "hypermap_census.cli", *argv],
                                stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                                timeout=60)
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI request pays for the import; dataclasses and inspect once
    # took about half of it, and tempfile and json serve only cache writes
    # and --format json
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    code = ("import sys, hypermap_census.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'tempfile'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
