"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/make_refs.py

runs every argv a CLI workload can issue through ``hypermap_census.cli.main``
(each against an empty cache dir) and every library-sweep call, and writes
the sha256 prefix of each output to ``perfbench/refs/digests.json``.  The
committed file was made on the seed commit; regenerating it on a later
commit would make the check compare a program with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from hypermap_census import RootedCensus, cli, series  # noqa: E402
from hypermap_census.orbifold import sensed_table  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    refs: dict[str, str] = {}
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".perfbench_tmp"))
    try:
        argvs = workloads.all_cli_requests()
        for i, argv in enumerate(argvs):
            os.environ["HYPERMAP_CACHE_DIR"] = str(scratch / str(i))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            if rc != 0:
                raise SystemExit(f"{' '.join(argv)} exited {rc}")
            refs[" ".join(argv)] = check.digest(out.getvalue().encode())
            shutil.rmtree(scratch / str(i), ignore_errors=True)
            if i % 100 == 0:
                print(f"{i}/{len(argvs)}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    census = RootedCensus(workloads.SWEEP_GENUS, workloads.SWEEP_DARTS)
    for name, g, n in workloads.sweep_calls():
        if name == "sensed_table":
            refs[f"{name} {g} {n}"] = check.digest(check.canon_table(sensed_table(g, n, census)))
            continue
        for fn in workloads.UNIVARIATE if name == "series" else (name,):
            refs[f"{fn} {g} {n}"] = check.digest(check.canon_series(getattr(series, fn)(g, n)))
    check.REFS.parent.mkdir(exist_ok=True)
    check.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} digests to {check.REFS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
