"""Command-line surface: compute tables, verify fixtures, run cross-engine checks.

Subcommands
-----------
rooted      rooted census for one genus (engines: kz = polynomial recurrence,
            seq = sequenced-hypermap recurrence, slow, dart-capped)
unrooted    sensed census for one genus
series      dart-count totals from the closed-form series (both parameter
            routes, cross-checked)
verify      recompute every row of fixture files and report mismatches
crosscheck  run the cross-engine consistency battery
cache-info  show the table cache location and contents

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.

The check battery is public, for the acceptance tests to run at their own
bounds: each ``check_*`` returns (first_bad, comparisons), first_bad being None
or (what, key) of the first failed comparison; :func:`fixture_failures` returns
FAIL lines.  It lives here because the benchmark's traced run
(``perfbench/tracing.py``) times the engines through the names imported here.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cache
from .core import CensusError, CountTable, faces_from_key, validate_hypermap_key
from .fixtures import (FixtureFormatError, discover_fixtures, parse_table,
                       render_json, render_table)
from .orbifold import sensed_table
from .rooted import RootedCensus
from .sequenced import SequencedCensus
from .series import MAX_UNIVARIATE_GENUS, hg_trivariate, hg_univariate, hg_via_t

DEFAULT_MAX_GENUS = 10
DEFAULT_MAX_DARTS = 30
DEEP_MAX_GENUS = 24
DEEP_MAX_DARTS = 50
SEQ_DART_CAP = 10
SEQ_GENUS_CAP = 3
CROSSCHECK_DEGREE_LISTS = ((), (1,), (2,), (3,), (1, 1), (1, 2), (2, 2))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except CensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermap-census",
        description="Exact counts of rooted and sensed orientable hypermaps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def bounds(p):
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--max-darts", type=int, required=True)
        p.add_argument("--deep", action="store_true",
                       help="raise the bound caps to genus %d / %d darts"
                            % (DEEP_MAX_GENUS, DEEP_MAX_DARTS))

    p = sub.add_parser("rooted", help="rooted hypermap census for one genus")
    bounds(p)
    p.add_argument("--engine", choices=("kz", "seq"), default="kz")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_rooted)

    p = sub.add_parser("unrooted", help="sensed hypermap census for one genus")
    bounds(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_unrooted)

    p = sub.add_parser("series", help="dart-count totals from the closed-form series")
    bounds(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="recompute fixture tables and compare")
    p.add_argument("--fixtures", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("crosscheck", help="cross-engine consistency battery")
    p.add_argument("--max-genus", type=int, default=2)
    p.add_argument("--max-darts", type=int, default=10)
    p.add_argument("--only", action="append", metavar="CHECK",
                   choices=("seq", "multiroot", "series", "orbifold"),
                   help="restrict to one or more named checks")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("cache-info", help="show cache location and contents")
    p.set_defaults(func=_cmd_cache_info)
    return parser


def _check_bounds(parser, genus: int, max_darts: int, deep: bool | None) -> None:
    """Exit 2 unless genus and max_darts lie inside the default caps, or the
    --deep caps when ``deep``; ``deep`` is None for a subcommand without --deep."""
    max_g = DEEP_MAX_GENUS if deep else DEFAULT_MAX_GENUS
    max_d = DEEP_MAX_DARTS if deep else DEFAULT_MAX_DARTS
    if genus < 0 or max_darts < 1:
        parser.error("need genus >= 0 and --max-darts >= 1")
    if genus > max_g or max_darts > max_d:
        parser.error(f"bounds exceed genus {max_g} / {max_d} darts"
                     + (" (use --deep to raise the caps)" if deep is False else ""))


def _rooted_table(genus: int, max_darts: int, use_cache: bool):
    if use_cache:
        cached = cache.load_cached("kz", genus, max_darts)
        if cached is not None:
            return cached
    table = RootedCensus(genus, max_darts).table(genus)
    if use_cache:
        cache.save_table(table, genus)
    return table


def _cmd_rooted(args, parser) -> int:
    _check_bounds(parser, args.genus, args.max_darts, args.deep)
    if args.engine == "seq":
        if args.max_darts > SEQ_DART_CAP:
            parser.error(f"the seq engine is capped at {SEQ_DART_CAP} darts")
        table = _seq_table(args.genus, args.max_darts)
    else:
        table = _rooted_table(args.genus, args.max_darts, not args.no_cache)
    _emit(table, args)
    return 0


def _cells(genera, max_darts: int):
    """Yield (g, t, f, e, v) for g in ``genera``, 1 <= t <= max_darts and
    1 <= f, e <= t + 1, with v forced by the genus relation (may be < 1)."""
    for g in genera:
        for t in range(1, max_darts + 1):
            for f in range(1, t + 2):
                for e in range(1, t + 2):
                    yield g, t, f, e, faces_from_key(g, t, f, e)  # v from (f, e) by symmetry


def _seq_table(genus: int, max_darts: int):
    seq = SequencedCensus()
    table = CountTable(engine="seq", max_genus=genus, max_darts=max_darts)
    for g, t, f, e, v in _cells((genus,), max_darts):
        if v >= 1:
            table.add(g, t, v, e, seq.rooted(g, t, f, e))
    return table.freeze()


def _cmd_unrooted(args, parser) -> int:
    _check_bounds(parser, args.genus, args.max_darts, args.deep)
    use_cache = not args.no_cache
    if use_cache:
        cached = cache.load_cached("sensed", args.genus, args.max_darts)
        if cached is not None:
            _emit(cached, args, header="H")
            return 0
    rooted = RootedCensus(args.genus, args.max_darts)
    table = sensed_table(args.genus, args.max_darts, rooted)
    if use_cache:
        cache.save_table(table, args.genus)
    _emit(table, args, header="H")
    return 0


def _emit(table, args, header: str = "h") -> None:
    if args.format == "json":
        print(render_json(table, args.genus))
    else:
        print(render_table(table, args.genus, count_header=header), end="")


def _cmd_series(args, parser) -> int:
    if not 0 <= args.genus <= MAX_UNIVARIATE_GENUS:
        parser.error(f"closed-form series exist for genus 0..{MAX_UNIVARIATE_GENUS}")
    _check_bounds(parser, args.genus, args.max_darts, args.deep)
    h = hg_univariate(args.genus, args.max_darts)
    alt = hg_via_t(args.genus, args.max_darts)
    if h != alt:
        print("error: the two parameterizations disagree", file=sys.stderr)
        return 1
    coeffs = h.integer_coefficients()
    if args.format == "json":
        import json
        print(json.dumps([{"genus": args.genus, "darts": d, "count": str(coeffs[d])}
                          for d in range(1, args.max_darts + 1)], indent=2))
    else:
        for d in range(1, args.max_darts + 1):
            print(f"{d:4d}   {coeffs[d]}")
    return 0


# -- the check battery ---------------------------------------------------------

def check_seq_vs_kz(rooted, seq, max_genus: int, max_darts: int):
    """The sequenced oracle's rooted counts equal the kz engine's."""
    bad, n = None, 0
    for g, t, f, e, v in _cells(range(max_genus + 1), max_darts):
        if v < 1:
            continue
        n += 1
        if seq.rooted(g, t, f, e) != rooted.count(g, t, v, e, f):
            bad = bad or ("seq vs kz", (g, t, f, e))
    return bad, n


def check_multiroot(seq, max_genus: int, max_darts: int, degree_lists):
    """The direct multirooted recurrence equals the sequenced-count product form."""
    bad, n = None, 0
    for g, t, f, e, _ in _cells(range(max_genus + 1), max_darts):
        for nn in range(1, t + 1):
            for D in degree_lists:
                if nn + sum(D) > t:
                    continue
                n += 1
                if seq.multirooted_direct(g, t, f, e, nn, D) != \
                        seq.multirooted(g, t, f, e, nn, D):
                    bad = bad or ("multiroot", (g, t, f, e, nn, D))
    return bad, n


def check_univariate(rooted, max_darts: int):
    """Dart-count series coefficients equal rooted totals, every closed-form genus."""
    bad, n = None, 0
    for g in range(MAX_UNIVARIATE_GENUS + 1):
        h = hg_univariate(g, max_darts)
        for d in range(1, max_darts + 1):
            n += 1
            if h.coefficient(d) != rooted.total(g, d):
                bad = bad or ("series univariate", (g, d))
    return bad, n


def check_trivariate(rooted, max_genus: int, degree: int):
    """Trivariate series coefficients below total degree ``degree`` equal
    rooted counts, where the census reaches the dart count."""
    bad, n = None, 0
    for g in range(max_genus + 1):
        tri = hg_trivariate(g, degree)
        for v in range(1, degree + 1):
            for e in range(1, degree + 1 - v):
                for f in range(1, degree + 1 - v - e):
                    t = v + e + f - 2 + 2 * g
                    if t > rooted.max_darts:
                        continue
                    n += 1
                    if tri.coefficient(v, e, f) != rooted.count(g, t, v, e, f):
                        bad = bad or ("series trivariate", (g, v, e, f))
    return bad, n


def check_parameterizations(order: int):
    """The tau- and t-parameterized dart series agree to ``order``."""
    bad = None
    for g in range(MAX_UNIVARIATE_GENUS + 1):
        if hg_univariate(g, order) != hg_via_t(g, order):
            bad = bad or ("parameterization", (g,))
    return bad, MAX_UNIVARIATE_GENUS + 1


def check_sandwich(rooted, max_genus: int, max_darts: int):
    """Sensed tables (exact division asserted inside) satisfy the Burnside
    sandwich rooted <= E * sensed, sensed <= rooted."""
    bad, n = None, 0
    for G in range(max_genus + 1):
        sensed = sensed_table(G, max_darts, rooted)
        for E in range(1, max_darts + 1):
            for (f, b, w), r in rooted.poly(G, E).terms():
                n += 1
                c = sensed.count(G, E, w, b)
                if not (r <= E * c and c <= r):
                    bad = bad or ("burnside sandwich", (G, E, w, b, f))
        for (g, E, v, e), c in sensed.items():
            if rooted.count(g, E, v, e, faces_from_key(g, E, v, e)) < c:
                bad = bad or ("sensed exceeds rooted", (G, E, v, e))
    return bad, n


def fixture_failures(name: str, genus: int, table, rows, sums) -> list[str]:
    """``FAIL`` lines for every fixture row or sum ``table`` does not reproduce
    and for every row ``table`` has that the fixture leaves out."""
    out = []
    for r in rows:
        ok = validate_hypermap_key(genus, r.darts, r.vertices, r.hyperedges, r.faces)
        got = table.count(genus, r.darts, r.vertices, r.hyperedges) if ok else "invalid key"
        if got != r.count or not got:  # a printed row is never a zero count
            out.append(f"FAIL {name}: d={r.darts} v={r.vertices} e={r.hyperedges} "
                       f"f={r.faces}: fixture {r.count}, computed {got}")
    printed = {(r.darts, r.vertices, r.hyperedges) for r in rows}
    for (g, t, v, e), c in sorted(table.items()):
        if (t, v, e) not in printed:
            out.append(f"FAIL {name}: d={t} v={v} e={e} f={faces_from_key(g, t, v, e)}: "
                       f"missing row, computed {c}")
    for s in sums:
        got = table.total(genus, s.darts)
        if got != s.total:
            out.append(f"FAIL {name}: d={s.darts} sum: fixture {s.total}, computed {got}")
    return out


def _cmd_verify(args, parser) -> int:
    try:
        fixture_list = discover_fixtures(args.fixtures)
    except OSError as exc:
        parser.error(f"cannot read fixtures directory: {exc}")
    if not fixture_list:
        parser.error(f"no fixture files (rooted-gN.txt / unrooted-gN.txt) in "
                     f"{args.fixtures}")
    failures = 0
    checked = 0
    for kind, genus, path in fixture_list:
        try:
            rows, sums = parse_table(path.read_text(), source=str(path))
        except FixtureFormatError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        max_darts = max([r.darts for r in rows] + [s.darts for s in sums], default=0)
        if max_darts == 0:
            print(f"{path.name}: empty fixture")
            continue
        _check_bounds(parser, genus, max_darts, None)
        rooted = RootedCensus(genus, max_darts)
        table = rooted.table(genus) if kind == "rooted" else \
            sensed_table(genus, max_darts, rooted)
        lines = fixture_failures(path.name, genus, table, rows, sums)
        for line in lines:
            print(line)
        checked += len(rows) + len(sums)
        failures += len(lines)
        status = f"{len(lines)} FAILED" if lines else "OK"
        print(f"{path.name}: {len(rows)} rows + {len(sums)} sums {status}")
    print(f"verify: {checked} checks, {failures} failures")
    return 1 if failures else 0


def _cmd_crosscheck(args, parser) -> int:
    max_g, max_d = args.max_genus, args.max_darts
    _check_bounds(parser, max_g, max_d, None)
    seq_g, seq_d = min(max_g, SEQ_GENUS_CAP), min(max_d, SEQ_DART_CAP)
    if seq_d < max_d:
        print(f"note: seq engine capped at {seq_d} darts (requested {max_d})")
    if seq_g < max_g:
        print(f"note: seq engine capped at genus {seq_g} (requested {max_g})")

    rooted = RootedCensus(max(max_g, MAX_UNIVARIATE_GENUS), max(max_d, 2))
    seq = SequencedCensus()
    battery = (
        ("seq", "rooted engines agree (kz vs seq)",
         lambda: check_seq_vs_kz(rooted, seq, seq_g, seq_d)),
        ("multiroot", "multirooted relation (direct vs product)",
         lambda: check_multiroot(seq, seq_g, min(8, seq_d), CROSSCHECK_DEGREE_LISTS)),
        ("series", "dart series vs rooted totals (genus 0..6)",
         lambda: check_univariate(rooted, max_d)),
        ("series", "trivariate series vs rooted counts",
         lambda: check_trivariate(rooted, min(max_g, 2), min(max_d, 12))),
        ("series", "parameterization equivalence (tau vs t)",
         lambda: check_parameterizations(max_d + 2)),
        ("orbifold", "burnside sandwich and exact divisibility",
         lambda: check_sandwich(rooted, min(max_g, 6), max_d)),
    )
    failed = 0
    for group, name, check in battery:
        if args.only and group not in args.only:
            continue
        bad, n = check()
        if bad is None:
            print(f"{name}: PASS ({n} comparisons)")
        else:
            print(f"{name}: FAIL at {bad}")
            failed += 1
    if failed:
        print(f"crosscheck: {failed} check(s) failed")
        return 1
    print("crosscheck: all checks passed")
    return 0


def _cmd_cache_info(args, parser) -> int:
    root = cache.cache_dir()
    override = os.environ.get("HYPERMAP_CACHE_DIR")
    print(f"cache directory: {root}" + (" (from HYPERMAP_CACHE_DIR)" if override else ""))
    entries = list(cache.cache_entries())
    if not entries:
        print("no cached tables")
        return 0
    for path, header in entries:
        print(f"  {path.name}: engine={header['engine']} genus={header['genus']} "
              f"max-darts={header['max-darts']} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
