"""Census benchmark: four workloads timed end to end, or per layer when traced.

    python3 perfbench/run.py --workload session --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  CLI workloads run ``hypermap_census.cli``
in subprocesses, as ``python -m`` runs it, one at a time (closed loop), with
PYTHONPATH set to the checkout's ``src`` and HYPERMAP_CACHE_DIR set to a
fresh directory under ``.perfbench_tmp/``.  ``library-sweep`` calls the
library in-process.  A run repeats one round of its workload (see
``workloads.py``) until ``--seconds`` is spent, checks every output (see
``check.py``) and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

The speed of a shared machine drifts by a quarter or more over minutes, so
the end-to-end latencies are paced: each operation's wall time is scaled by
REF_LOOP_S over the time a fixed reference loop took then.  The loop is
timed every SAMPLE_PERIOD on a thread while a CLI subprocess runs (beside
the subprocess it reads slower than alone), and every request of a round is
scaled by the mean of the timings over the round: the one or two timings
beside a short request are too noisy on their own.  On library-sweep the
loop is timed alone, between library calls, and each call is scaled by the
mean of the timings just before and after it.  A request's latency is the
median of its paced latencies over the rounds, or on session, which fits
only three or four rounds in a run, the least of them.  These metrics have
the unit ``ref_s``: seconds on a machine where the loop takes REF_LOOP_S.
The raw wall-clock figures are printed too, in the metadata line.  ``setup_s`` is paced the same way, against the
loop timed before and after each set-up; it keeps the unit ``s``.

``peak_rss_mib`` is the high-water mark of each process's own memory
(VmHWM), which a CLI subprocess reports as it exits (see CHILD).
``ru_maxrss`` would not do: exec carries the spawning process's peak into it.

A traced run runs the workload's rounds in-process, through
``hypermap_census.cli.main`` or the library, alternately untraced and with
the shims of ``tracing.py`` installed; ``trace.overhead_frac`` compares the
two.  The line before the result holds the run metadata; spans and per-op
latencies go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

import check  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("deep-cold", "session", "audit", "library-sweep")
END_TO_END = {"wall_s": "ref_s", "setup_s": "s", "peak_rss_mib": "MiB",
              "req_p50_s": "ref_s", "req_tail_s": "ref_s", "repeat_p50_s": "ref_s"}
TAIL_BEYOND = 10        # requests beyond the tail percentile
REF_LOOP = 50_000       # iterations of the reference loop
REF_LOOP_S = 0.0026     # its time on an unloaded 2-vCPU Xeon, CPython 3.11
SAMPLE_PERIOD = 0.05    # seconds between timings while a subprocess runs
OP_TIMEOUT = 150        # seconds; a slower op is killed and counted failed
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
ACCOUNTED_MIN = 0.9     # share of the traced wall the engine layers must cover

# Runs the CLI as ``python -m hypermap_census.cli`` would, then writes the
# process's peak RSS in KiB as the last line of its stderr.
CHILD = """\
import runpy, sys
try:
    runpy.run_module("hypermap_census.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    sys.stderr.write("\\nperfbench-peak-kib " + (hwm[0] if hwm else "0") + "\\n")
"""


class Op:
    """One timed operation, the reference loop's time then, and whether
    its output checked out."""
    __slots__ = ("latency", "ref", "cls", "error")

    def __init__(self, latency: float, ref: float | None, cls: str, error: str | None):
        self.latency, self.ref, self.cls, self.error = latency, ref, cls, error

    @property
    def paced(self) -> float:
        return pace(self.latency, self.ref)


def pace(latency: float, ref: float) -> float:
    """``latency`` scaled to a machine where the reference loop takes REF_LOOP_S."""
    return latency * REF_LOOP_S / ref


def loop_time() -> float:
    """One timing of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def reference() -> float:
    """Best of three timings of the reference loop."""
    return min(loop_time() for _ in range(3))


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Time the reference loop on a thread while the block waits on a
    subprocess: at once, then every SAMPLE_PERIOD."""
    stop = threading.Event()

    def sample():
        while True:
            samples.append(loop_time())
            if stop.wait(SAMPLE_PERIOD):
                return

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def own_peak_kib() -> int:
    """High-water mark of this process's own memory since exec, in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it; the maximum when that percentile would not lie above the
    median."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND
    if rank <= (len(xs) + 1) / 2:
        rank = len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


class Runner:
    """Set-up, rounds and checks of one workload."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.cli = workload != "library-sweep"
        self.ops: list[Op] = []
        self.dirs = 0
        self.peak_kib = 0          # largest VmHWM of a measured CLI subprocess
        self.census = None
        self.request_id = None     # (round, index in round) of the op running

    # -- set-up -------------------------------------------------------------

    def setup(self, repeats: int = SETUP_REPEATS) -> float:
        """Set up ``repeats`` times; returns the median paced set-up time."""
        times = []
        for _ in range(repeats):
            self.census = None      # hold one census at a time
            before = reference()
            t0 = time.perf_counter()
            self.refs = check.load_refs()
            self.fixtures = check.load_fixtures(ROOT)
            if self.cli:
                self.requests = workloads.CLI_ROUNDS[self.workload](self.seed)
                self.cache_dir = self.new_dir()
                self.warm_up()
            else:
                from hypermap_census import RootedCensus
                self.census = RootedCensus(workloads.SWEEP_GENUS, workloads.SWEEP_DARTS)
            latency = time.perf_counter() - t0
            times.append(pace(latency, (before + reference()) / 2))
        return median(times)

    def new_dir(self) -> Path:
        self.dirs += 1
        return self.tmp / f"cache{self.dirs}"

    def env(self, cache_dir: Path) -> dict:
        return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC),
                "HYPERMAP_CACHE_DIR": str(cache_dir), "HOME": str(self.tmp),
                "LC_ALL": "C.UTF-8", "PYTHONHASHSEED": "0"}

    def warm_up(self) -> None:
        rc = self.spawn(["cache-info"], self.cache_dir)[0]
        if rc != 0:
            raise SystemExit(f"cache-info exited {rc} in set-up")

    def spawn(self, argv, cache_dir: Path, cli=True):
        """Run one subprocess, the CLI with ``argv`` or python with ``argv``
        -> (exit code, stdout, seconds, reference loop times while it ran,
        peak RSS in KiB or None); the exit code is None on a timeout."""
        cmd = [sys.executable] + (["-c", CHILD] if cli else []) + list(argv)
        samples: list[float] = []
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=self.env(cache_dir), cwd=ROOT)
        with sampling(samples):
            try:
                out, err = p.communicate(timeout=OP_TIMEOUT)
                rc = p.returncode
            except subprocess.TimeoutExpired:
                p.kill()
                out, err = p.communicate()
                rc = None
            latency = time.perf_counter() - t0
        peak = None
        lines = err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith("perfbench-peak-kib "):
            peak = int(lines[-1].split()[1])
        return rc, out, latency, samples, peak

    # -- rounds -------------------------------------------------------------

    def rounds(self, budget: float, min_rounds: int, one_round) -> list[list[Op]]:
        """Run rounds until another would overrun ``budget`` seconds."""
        done: list[list[Op]] = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            done.append(one_round(len(done)))
            elapsed, last = time.perf_counter() - t0, time.perf_counter() - r0
            if len(done) >= min_rounds and elapsed + last > budget:
                return done

    def pick(self):
        """How a request's latencies over the rounds are summed up: session
        fits only three or four rounds in a run, too few for a median."""
        return min if self.workload == "session" else statistics.median

    def min_rounds(self) -> int:
        # fixed workloads need a second round for repeat_p50_s
        return 1 if self.workload == "session" else 2

    def cli_round(self, index: int, call) -> list[Op]:
        """One round of CLI requests; ``call(argv, cache_dir)`` -> (rc, stdout,
        seconds, reference loop times, peak RSS KiB)."""
        if self.workload == "session" or index == 0:
            self.cache_dir = self.new_dir()
        stored: list[tuple[str, int, int]] = []
        ops, samples = [], []
        for j, req in enumerate(self.requests):
            self.request_id = (index, j)
            rc, out, latency, loop_times, peak = call(req.argv, self.cache_dir)
            samples += loop_times or []
            self.peak_kib = max(self.peak_kib, peak or 0)
            error = self.check_cli(req, rc, out, stored)
            cls = req.cls if self.workload == "session" else ("repeat" if index else "first")
            ops.append(Op(latency, None, cls, error))
        for op in ops:
            op.ref = statistics.fmean(samples) if samples else None
        self.ops += ops
        return ops

    def check_cli(self, req, rc, out: bytes, stored) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        argv = req.argv
        if argv[0] == "cache-info":
            return check.cache_info_mismatch(out.decode(), self.cache_dir, stored)
        if argv[0] in ("rooted", "unrooted") and "--no-cache" not in argv:
            g, d = int(argv[2]), int(argv[4])
            entry = ("kz" if argv[0] == "rooted" else "sensed", g, d)
            if entry not in stored:
                stored.append(entry)
        want = self.refs.get(req.key)
        if want is None:
            return "no reference output recorded"
        if check.digest(out) != want:
            return "output differs from the reference"
        return check.fixture_mismatch(argv, out.decode(), self.fixtures)

    def sweep_round(self, index: int, call) -> list[Op]:
        """One library-sweep round; ``call(name, g, n)`` -> (result, s)."""
        rng = random.Random(self.seed * 1000 + index)
        ops = []
        before = reference()
        for j, (name, g, n) in enumerate(workloads.sweep_calls()):
            self.request_id = (index, j)
            try:
                result, latency = call(name, g, n)
            except Exception:
                traceback.print_exc()
                result, latency = None, float("nan")
            after = reference()
            error = f"{name}({g}, {n}) raised" if result is None else \
                self.check_sweep(name, g, n, result, rng)
            ops.append(Op(latency, (before + after) / 2, "repeat" if index else "first", error))
            before = after
        self.ops += ops
        return ops

    def check_sweep(self, name, g, n, result, rng) -> str | None:
        census = self.census
        if name == "series":
            for fn, series in zip(workloads.UNIVARIATE, result):
                if check.digest(check.canon_series(series)) != self.refs.get(f"{fn} {g} {n}"):
                    return f"{fn}({g}, {n}) differs from the reference"
            result = result[0]
        elif name == "sensed_table":
            if check.digest(check.canon_table(result)) != self.refs.get(f"{name} {g} {n}"):
                return f"{name}({g}, {n}) differs from the reference"
        elif check.digest(check.canon_series(result)) != self.refs.get(f"{name} {g} {n}"):
            return f"{name}({g}, {n}) differs from the reference"
        if name == "sensed_table":
            if g <= check.FIXTURE_MAX_GENUS:
                rows, _ = self.fixtures["unrooted", g]
                for (d, v, e, f), c in rows.items():
                    if result.count(g, d, v, e) != c:
                        return f"sensed genus {g} {(d, v, e, f)} differs from fixture"
            cells = []
            for _ in range(10):
                d = rng.randint(workloads.min_darts(g), n)
                terms = list(census.poly(g, d).terms())
                (f, b, w), _ = rng.choice(terms)
                cells.append((d, f, b, w))
            return check.sensed_sandwich(result, census, g, cells)
        if name == "hg_trivariate":
            for _ in range(20):
                v, e = rng.randint(1, n - 2), rng.randint(1, n - 2)
                f = rng.randint(1, max(1, n - v - e))
                if v + e + f > n:
                    continue
                t = v + e + f - 2 + 2 * g
                if t <= census.max_darts and result.coefficient(v, e, f) != \
                        census.count(g, t, v, e, f):
                    return f"trivariate genus {g} {(v, e, f)} differs from census"
            return None
        for d in range(1, n + 1):
            if result.coefficient(d) != census.total(g, d):
                return f"{name} genus {g} d={d} differs from census"
        return None

    def run_rounds(self, budget: float, min_rounds: int) -> list[list[Op]]:
        """Untraced rounds: CLI subprocesses, or plain library calls."""
        if self.cli:
            return self.rounds(budget, min_rounds,
                               lambda i: self.cli_round(i, self.spawn))
        call = self.library_call(library_fns())
        return self.rounds(budget, min_rounds, lambda i: self.sweep_round(i, call))

    def library_call(self, fns):
        def call(name, g, n):
            t0 = time.perf_counter()
            if name == "series":
                out = tuple(fns[fn](g, n) for fn in workloads.UNIVARIATE)
            elif name == "sensed_table":
                out = fns[name](g, n, self.census)
            else:
                out = fns[name](g, n)
            return out, time.perf_counter() - t0
        return call

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, rounds: list[list[Op]], setup_s: float) -> tuple[dict, dict]:
        """Metrics of a typical round: each request's median paced latency
        over the rounds (the least on session), and the same from the raw
        latencies."""
        pick = self.pick()

        def latencies(paced: bool) -> dict:
            typical = per_request(rounds, paced, pick)
            if self.workload == "session":
                repeat = [t for t, op in zip(typical, rounds[0]) if op.cls == "repeat"]
            else:
                repeat = per_request(rounds[1:], paced, pick)
            return {"wall_s": sum(typical), "req_p50_s": median(typical),
                    "req_tail_s": tail(typical)[0], "repeat_p50_s": median(repeat)}

        peak_kib = self.peak_kib if self.cli else own_peak_kib()
        if not peak_kib:
            raise SystemExit("no subprocess reported its peak RSS")
        metrics = {"setup_s": setup_s, "peak_rss_mib": peak_kib / 1024,
                   **latencies(paced=True)}
        info = {"rounds": len(rounds), "requests": sum(map(len, rounds)),
                "tail_percentile": tail([op.latency for op in rounds[0]])[1],
                "raw_s": latencies(paced=False)}
        return metrics, info


def library_fns() -> dict:
    """The library entry points library-sweep calls, untraced."""
    from hypermap_census import orbifold, series
    return {"sensed_table": orbifold.sensed_table, **{
        n: getattr(series, n) for n in ("hg_trivariate",) + workloads.UNIVARIATE}}


def per_request(rounds: list[list[Op]], paced: bool, pick) -> list[float]:
    """Per request position, ``pick`` of its latencies over the rounds."""
    return [pick(ops) for ops in zip(*([op.paced if paced else op.latency for op in r]
                                       for r in rounds))]


def run_plain(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_s = runner.setup()
    rounds = runner.run_rounds(seconds, runner.min_rounds())
    return runner.end_to_end(rounds, setup_s)


def traced_round(index: int) -> bool:
    """Rounds run untraced, traced, traced, untraced, and so on, so warm-up
    and drift fall on both sides of the comparison."""
    return index % 4 in (1, 2)


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from in-process rounds, alternately untraced and
    traced; CLI start-up is timed apart, by subprocesses that only import."""
    import tracing

    runner.setup(repeats=1)
    startup = 0.0
    if runner.cli:
        samples = [runner.spawn(["-c", "import hypermap_census.cli"],
                                runner.cache_dir, cli=False)[2]
                   for _ in range(STARTUP_SAMPLES)]
        startup = median(samples)
    tracer = tracing.Tracer()
    plain_fns = None if runner.cli else library_fns()
    refs = []       # per round, the reference loop's time around it

    def run_round(i):
        traced = traced_round(i)
        if runner.cli:
            if traced:
                tracing.install(tracer)
            try:
                return runner.cli_round(i, in_process(runner, tracer if traced else None))
            finally:
                tracing.uninstall()
        call = runner.library_call(tracing.library(tracer) if traced else plain_fns)

        def traced_call(name, g, n):
            tracer.request = runner.request_id
            return call(name, g, n)
        return runner.sweep_round(i, traced_call)

    def one_round(i):
        before = reference()
        ops = run_round(i)
        refs.append((before + reference()) / 2)
        return ops

    done = runner.rounds(seconds, 2, one_round)
    # per op, its time less the time spent reading output sizes
    counting = {}
    for name, start, end, _, request in tracer.spans:
        if name == "trace.count":
            counting[request] = counting.get(request, 0.0) + end - start
    own = [[op.latency - counting.get((i, j), 0.0) for j, op in enumerate(ops)]
           for i, ops in enumerate(done)]
    traced = [i for i in range(len(done)) if traced_round(i)]
    plain = [i for i in range(len(done)) if not traced_round(i)]

    def typical_wall(rounds):
        """Sum over request positions of the paced times over ``rounds``,
        each summed up as on the untraced run."""
        return sum(runner.pick()(pace(own[i][j], refs[i]) for i in rounds)
                   for j in range(len(done[0])))

    n = len(traced)
    requests = sum(len(done[i]) for i in traced) / n if runner.cli else 0
    wall = statistics.fmean(sum(own[i]) for i in traced) + startup * requests
    metrics = tracing.span_metrics(tracer, n)
    metrics.update(tracing.count_metrics(tracer, n))
    # the cli's own glue is what the engine shims leave uncovered
    engines = sum(v for k, v in metrics.items()
                  if k.endswith("_s") and k not in ("cli.main_s", "cli.self_s"))
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_frac"] = typical_wall(traced) / typical_wall(plain)
    metrics["trace.accounted_frac"] = (engines + startup * requests) / wall
    metrics["trace.dominant_frac"] = dominant_frac(runner, tracer, metrics, wall, startup)
    if not ACCOUNTED_MIN <= metrics["trace.accounted_frac"] <= 1.05:
        raise SystemExit(f"engine layers and start-up account for "
                         f"{metrics['trace.accounted_frac']:.3f} of the traced wall time")
    floor = DOMINANT[runner.workload][1]
    if metrics["trace.dominant_frac"] < floor:
        raise SystemExit(f"the dominant layers take {metrics['trace.dominant_frac']:.3f} "
                         f"of {runner.workload}, below {floor}")
    info = {"untraced_rounds": len(plain), "traced_rounds": n,
            "spans": tracer.spans}
    return metrics, info


def in_process(runner: Runner, tracer):
    """A CLI call through ``hypermap_census.cli.main`` in this process,
    inside a ``cli.main`` span when ``tracer`` is given."""
    from hypermap_census import cli

    def call(argv, cache_dir):
        os.environ["HYPERMAP_CACHE_DIR"] = str(cache_dir)
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.request = runner.request_id
            span = tracer.span("cli.main")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                rc = None
        return rc, out.getvalue().encode(), time.perf_counter() - start, None, None
    return call


# workload -> (metric prefixes of its intended dominant layers, the least
# share of the traced wall time they must take)
DOMINANT = {
    "deep-cold": (("rooted.",), 0.8),
    "audit": (("sequenced.",), 0.7),
    "library-sweep": (("orbifold.", "series."), 0.9),
    "session": (("cli.", "cache.", "fixtures."), 0.9),
}


def dominant_frac(runner, tracer, metrics, wall, startup) -> float:
    """Share of the traced wall time spent in the workload's intended
    dominant layers; on session, of its repeat requests only."""
    prefixes = DOMINANT[runner.workload][0]
    if runner.workload != "session":
        share = sum(v for k, v in metrics.items() if k.startswith(prefixes)
                    and k.endswith("_s") and k != "cli.main_s")
        return share / wall
    repeat = {j for j, r in enumerate(runner.requests) if r.cls == "repeat"}
    total = dominant = 0.0
    for (name, _, _, _, (_, j)), own in zip(tracer.spans, tracer.self_times()):
        if j in repeat and name != "trace.count":
            total += own
            dominant += own if name.startswith(prefixes) else 0.0
    n_repeat = sum(1 for s in tracer.spans if s[0] == "cli.main" and s[4][1] in repeat)
    return (dominant + startup * n_repeat) / (total + startup * n_repeat)


def metadata() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"nproc": nproc, "python": platform.python_version(), "cpu": cpu,
            "commit": commit, "src_sha256": src.hexdigest()[:16],
            "load1_start": load, "load_flagged": load > nproc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypermap_census" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("error: run from a checkout holding src/hypermap_census and fixtures/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    meta = metadata()
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    saved_env = os.environ.get("HYPERMAP_CACHE_DIR")
    try:
        runner = Runner(args.workload, args.seed, tmp)
        run = run_traced if args.trace else run_plain
        metrics, info = run(runner, args.seconds)
    finally:
        if saved_env is None:
            os.environ.pop("HYPERMAP_CACHE_DIR", None)
        else:
            os.environ["HYPERMAP_CACHE_DIR"] = saved_env
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [op for op in runner.ops if op.error]
    for op in failed[:5]:
        print(f"failed: {op.error}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, load1_end=os.getloadavg()[0],
                fail_frac=len(failed) / max(len(runner.ops), 1),
                **{k: v for k, v in info.items() if k != "spans"})
    units = {} if args.trace else END_TO_END
    result = {"correct": not failed, "attempted": len(runner.ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result,
              "latencies": [[op.latency, op.cls, op.error] for op in runner.ops],
              "spans": info.get("spans", [])}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.startswith("cache.bytes") or name == "fixtures.bytes_out":
        return "B"
    if name.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
