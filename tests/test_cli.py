import json

import pytest

from hypermap_census.cli import main


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


def test_verify_detects_single_perturbed_value(tmp_path, capsys, fixtures_dir):
    text = (fixtures_dir / "rooted-g6.txt").read_text()
    assert "68428800" in text
    (tmp_path / "rooted-g6.txt").write_text(text.replace("68428800", "68428801", 1))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL ")]
    assert len(fail_lines) == 1
    assert "d=13" in fail_lines[0]


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


def test_crosscheck_caps_seq_genus(capsys):
    assert main(["crosscheck", "--max-genus", "4", "--max-darts", "4",
                 "--only", "seq"]) == 0
    out = capsys.readouterr().out
    assert "capped at genus 3" in out


def test_cache_info(capsys):
    assert main(["rooted", "--genus", "0", "--max-darts", "3"]) == 0
    capsys.readouterr()
    assert main(["cache-info"]) == 0
    out = capsys.readouterr().out
    assert "kz-g0-d3.counts" in out and "cache directory" in out
