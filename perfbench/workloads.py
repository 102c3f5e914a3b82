"""Workload definitions: what each benchmark round asks of the package.

A round is a fixed list of operations.  CLI workloads issue argv lists to
``python -m hypermap_census.cli``; ``library-sweep`` calls the library.
Every round of a run replays the same list, so counts repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_MAX_GENUS = 10
DEFAULT_MAX_DARTS = 30
SERIES_MAX_GENUS = 6

# deep-cold: one genus past the default cap, at the default dart cap.  Genus 12
# / 36 darts takes about 20 s a round; at about 5 s a round a run has five
# rounds to take the best of, on a machine whose speed varies.
DEEP_GENUS = 11
DEEP_DARTS = 30

# session: one round is SESSION_SIZE requests against one fresh cache dir.
SESSION_MIX = {"fresh": 20, "sub-bound": 10, "repeat": 20}
SESSION_SIZE = sum(SESSION_MIX.values())
# fresh requests besides one census request per genus 0..10
SESSION_FRESH_SERIES = 6
SESSION_FRESH_INFO = 3
# a fresh census request for genus g asks for 2g + SESSION_DARTS darts, +-1
SESSION_DARTS = 6

# library-sweep: census built in set-up, then swept
SWEEP_GENUS = 10
SWEEP_DARTS = 30
SWEEP_TRIVARIATE_GENUS = 2
SWEEP_TRIVARIATE_ORDER = 12
SWEEP_UNIVARIATE_ORDER = 30


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    cls: str = "fixed"      # fresh / sub-bound / repeat for session requests

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def min_darts(genus: int) -> int:
    """Smallest dart count with a genus-``genus`` hypermap."""
    return 2 * genus + 1


def census_argv(kind: str, genus: int, darts: int, fmt: str) -> tuple[str, ...]:
    argv = (kind, "--genus", str(genus), "--max-darts", str(darts))
    return argv + (("--format", "json") if fmt == "json" else ())


def deep_cold_round(seed: int) -> list[Request]:
    flags = ("--genus", str(DEEP_GENUS), "--max-darts", str(DEEP_DARTS),
             "--deep", "--no-cache")
    return [Request(("rooted",) + flags), Request(("unrooted",) + flags)]


def audit_round(seed: int) -> list[Request]:
    return [Request(("verify", "--fixtures", "fixtures/")), Request(("crosscheck",))]


def session_round(seed: int) -> list[Request]:
    """A seeded closed-loop session within the default caps.

    The requests are stratified so the cost mix stays alike from seed to
    seed: one fresh census request per genus 0..10, at about 2g + 6 darts;
    one sub-bound request for each genus 1..10, 1 to 3 darts below the
    request it follows; and repeats of 20 distinct earlier census requests.
    The seed picks rooted or unrooted, formats, dart counts within that
    range, series bounds, which requests are repeated and the order; a
    request that follows another always comes after it.
    """
    rng = random.Random(seed)
    fmt = lambda: rng.choice(("table", "json"))  # noqa: E731
    kinds = ["rooted"] * 6 + ["unrooted"] * 5
    rng.shuffle(kinds)
    # (position, class, argv); a follower is placed after the request it follows
    items = []
    census = {}
    for g, kind in enumerate(kinds):
        darts = min(DEFAULT_MAX_DARTS, 2 * g + SESSION_DARTS + rng.randint(-1, 1))
        census[g] = (rng.random(), kind, darts)
        items.append((census[g][0], "fresh", census_argv(kind, g, darts, fmt())))
    for _ in range(SESSION_FRESH_SERIES):
        g, darts = rng.randrange(SERIES_MAX_GENUS + 1), rng.randint(1, DEFAULT_MAX_DARTS)
        items.append((rng.random(), "fresh", census_argv("series", g, darts, fmt())))
    items += [(rng.random(), "fresh", ("cache-info",)) for _ in range(SESSION_FRESH_INFO)]
    for g in range(1, DEFAULT_MAX_GENUS + 1):
        pos, kind, darts = census[g]
        pos += (1 - pos) * rng.random()
        items.append((pos, "sub-bound",
                      census_argv(kind, g, darts - rng.randint(1, 3), fmt())))
    targets = [(pos, argv) for pos, _, argv in items if argv[0] in ("rooted", "unrooted")]
    for pos, argv in rng.sample(targets, SESSION_MIX["repeat"]):
        items.append((pos + (1 - pos) * rng.random(), "repeat", argv))
    items.sort()
    assert len(items) == SESSION_SIZE
    return [Request(argv, cls) for _, cls, argv in items]


CLI_ROUNDS = {"deep-cold": deep_cold_round, "session": session_round,
              "audit": audit_round}


def all_cli_requests() -> list[tuple[str, ...]]:
    """Every argv a CLI workload can issue, except cache-info (its output
    names the cache dir, so it is checked against a model instead)."""
    out = [r.argv for r in deep_cold_round(0) + audit_round(0)]
    for kind in ("rooted", "unrooted"):
        for g in range(DEFAULT_MAX_GENUS + 1):
            for d in range(min_darts(g), DEFAULT_MAX_DARTS + 1):
                for fmt in ("table", "json"):
                    out.append(census_argv(kind, g, d, fmt))
    for g in range(SERIES_MAX_GENUS + 1):
        for d in range(1, DEFAULT_MAX_DARTS + 1):
            for fmt in ("table", "json"):
                out.append(census_argv("series", g, d, fmt))
    return out


# the two parameterizations of the dart-count series, computed as one call
UNIVARIATE = ("hg_univariate", "hg_via_t")


def sweep_calls() -> list[tuple[str, int, int]]:
    """(function name, genus, order or darts) of one library-sweep round;
    "series" stands for both UNIVARIATE functions."""
    calls = [("sensed_table", G, SWEEP_DARTS) for G in range(SWEEP_GENUS + 1)]
    calls += [("hg_trivariate", g, SWEEP_TRIVARIATE_ORDER)
              for g in range(SWEEP_TRIVARIATE_GENUS + 1)]
    calls += [("series", g, SWEEP_UNIVARIATE_ORDER) for g in range(SERIES_MAX_GENUS + 1)]
    return calls
