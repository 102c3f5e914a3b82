"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/trajectory.py --seeds 1-10 --trace 0 1 --out perfbench/baseline/x.json

For every workload, trace mode and seed it runs ``perfbench/run.py`` once,
one run at a time, and records the run's metadata and result.  Per workload
and metric it reports the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", nargs="+", type=int, default=[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "runs": [], "summary": {}}
    for workload in args.workloads:
        for trace in args.trace:
            per_metric: dict[str, list[float]] = {}
            for seed in seeds(args.seeds):
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr}", file=sys.stderr)
                    return 1
                meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
                report["runs"].append({"meta": meta, "result": result})
                for name, m in result["metrics"].items():
                    per_metric.setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)
            key = f"{workload} trace{trace}"
            report["summary"][key] = {name: summary(v) for name, v in per_metric.items()}
            for name, s in report["summary"][key].items():
                if name in bounds:
                    flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over bound/3"
                    print(f"  {key} {name}: median {s['median']:.4f} spread "
                          f"{s['spread']:.3f} (bound {bounds[name]}){flag}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
