"""Correctness checks for benchmark operations.

Three independent checks, any failure of which counts the operation failed:

* the output's digest must equal the one recorded for the same argv (or
  library call) on the seed commit, in ``refs/digests.json``;
* census rows inside the fixture range (genus <= 6, <= 14 darts) must match
  ``fixtures/`` as read by this module's own parser;
* ``cache-info`` must name the cache dir and every table the session stored.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs" / "digests.json"
FIXTURE_MAX_GENUS = 6
FIXTURE_MAX_DARTS = 14


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canon_table(table) -> bytes:
    """A CountTable as text, independent of insertion order."""
    return "\n".join(f"{k} {c}" for k, c in sorted(table.items())).encode()


def canon_series(series) -> bytes:
    """A USeries (coefficient list) or TSeries (exponent dict) as text."""
    if hasattr(series, "integer_coefficients"):
        return " ".join(map(str, series.integer_coefficients())).encode()
    return "\n".join(f"{k} {int(v)}" for k, v in sorted(series.d.items())).encode()


def load_refs() -> dict[str, str]:
    return json.loads(REFS.read_text())


def load_fixtures(root: Path) -> dict:
    """{(kind, genus): (rows {(d, v, e, f): count}, sums {d: total})}."""
    out = {}
    for path in sorted((root / "fixtures").glob("*-g*.txt")):
        kind, _, genus = path.stem.partition("-g")
        out[kind, int(genus)] = _census_rows(path.read_text(), "table")
    return out


def _census_rows(stdout: str, fmt: str):
    rows, sums = {}, {}
    if fmt == "json":
        for r in json.loads(stdout):
            key = (r["darts"], r["vertices"], r["hyperedges"], r["faces"])
            rows[key] = int(r["count"])
        return rows, None
    for line in stdout.splitlines():
        tok = line.split()
        if len(tok) == 3 and tok[1] == "sum":
            sums[int(tok[0])] = int(tok[2])
        elif len(tok) == 5 and tok[0].isdigit():
            rows[tuple(map(int, tok[:4]))] = int(tok[4])
    return rows, sums


def _series_totals(stdout: str, fmt: str) -> dict[int, int]:
    if fmt == "json":
        return {r["darts"]: int(r["count"]) for r in json.loads(stdout)}
    return {int(a): int(b) for a, b in (line.split() for line in stdout.splitlines())}


def _in_range(d: int, darts: int) -> bool:
    return d <= min(darts, FIXTURE_MAX_DARTS)


def fixture_mismatch(argv, stdout: str, fixtures: dict) -> str | None:
    """Compare the fixture-range part of a census or series output."""
    cmd = argv[0]
    if cmd not in ("rooted", "unrooted", "series"):
        return None
    genus = int(argv[argv.index("--genus") + 1])
    darts = int(argv[argv.index("--max-darts") + 1])
    if genus > FIXTURE_MAX_GENUS:
        return None
    fmt = "json" if "json" in argv else "table"
    if cmd == "series":
        _, ref_sums = fixtures["rooted", genus]
        got = _series_totals(stdout, fmt)
        for d in range(1, min(darts, FIXTURE_MAX_DARTS) + 1):
            if got.get(d) != ref_sums.get(d, 0):
                return f"series d={d}: {got.get(d)} != fixture {ref_sums.get(d, 0)}"
        return None
    ref_rows, ref_sums = fixtures[cmd, genus]
    rows, sums = _census_rows(stdout, fmt)
    want = {k: c for k, c in ref_rows.items() if _in_range(k[0], darts)}
    got = {k: c for k, c in rows.items() if _in_range(k[0], darts)}
    if got != want:
        bad = sorted(set(got.items()) ^ set(want.items()))[0]
        return f"fixture row mismatch at {bad}"
    if sums is not None:
        for d, total in ref_sums.items():
            if _in_range(d, darts) and sums.get(d) != total:
                return f"sum d={d}: {sums.get(d)} != fixture {total}"
    return None


def cache_info_mismatch(stdout: str, cache_dir: Path, stored) -> str | None:
    """cache-info must name ``cache_dir`` and each (engine, genus, darts) stored."""
    lines = stdout.splitlines()
    if not lines or str(cache_dir) not in lines[0]:
        return "cache-info does not name the cache dir"
    for engine, genus, darts in stored:
        name = f"{engine}-g{genus}-d{darts}.counts"
        if not any(name in line for line in lines[1:]):
            return f"cache-info does not list {name}"
    return None


def sensed_sandwich(table, census, genus: int, cells) -> str | None:
    """Burnside sandwich at the given (darts, f, b, w) cells:
    rooted <= darts * sensed and sensed <= rooted."""
    for d, f, b, w in cells:
        r = census.count(genus, d, w, b, f)
        c = table.count(genus, d, w, b)
        if not (r <= d * c and c <= r):
            return f"sandwich fails at genus {genus} {(d, w, b, f)}: rooted {r}, sensed {c}"
    return None
