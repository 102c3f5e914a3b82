"""Every pinned command prints its reference digest, with and without a usable cache.

The commands are the benchmark's (from ``perfbench/workloads.py``), then every
``series``, ``rooted`` and ``unrooted`` command in ``perfbench/refs/digests.json``,
run in-process on one fresh cache directory.  A command also fails there if it
writes to stderr: many are served from the file the one before wrote, and a
refused file would still print the right table after a warning.  Then the
``rooted`` and ``unrooted`` commands of genus <= 1 run with the cache directory
under a 300-character path component, which can be neither read nor written:
each must still print its reference table and exit 0, with only warning lines
on stderr and at least one (a path the cache could use would test nothing).

    HYPERMAP_DEEP=1 python -m pytest -m deep tests/test_reference_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hypermap_census import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.deep
def test_pinned_commands_print_their_reference_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)   # the benchmark's verify reads fixtures/ by a relative path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    refs = json.loads((PERFBENCH / "refs" / "digests.json").read_text())
    bench = [r.key for r in workloads.deep_cold_round(1) + workloads.audit_round(1)]
    pinned = [argv for argv in refs if argv.split()[0] in ("series", "rooted", "unrooted")]
    low_genus = [argv for argv in refs if argv.split()[0] in ("rooted", "unrooted")
                 and int(argv.split()[argv.split().index("--genus") + 1]) <= 1]
    assert bench and pinned and low_genus

    modes = (
        # (cache directory, commands, whether stderr must hold warnings only and at least one)
        (tmp_path / "digest-cache", list(dict.fromkeys(bench + pinned)), False),
        (tmp_path / ("a" * 300), low_genus, True),
    )
    failures = []
    for cache_dir, argvs, warned in modes:
        monkeypatch.setenv("HYPERMAP_CACHE_DIR", str(cache_dir))
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv.split())
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
            lines = err.getvalue().splitlines()
            stray = [line for line in lines if not line.startswith("warning: ")] \
                if warned else lines
            if rc != 0 or got != refs[argv] or stray or (warned and not lines):
                failures.append(f"{argv}: exit {rc}, sha256 {got}, reference {refs[argv]}, "
                                f"stderr {(stray or lines or [''])[0]!r}")
    assert not failures, f"{len(failures)} commands failed:\n" + "\n".join(failures)
