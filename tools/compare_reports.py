"""Run every job of the benchmark's workloads under two source trees and compare what each writes.

Usage, from the root of a checkout::

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [--seeds 0 17]

Each ``*_SRC`` is a ``src`` directory that ``friedzeta`` is imported from.  For
each workload and seed, the full-size jobs of ``perfbench/workloads.build``
(its untimed preparation first) run once per tree in one scratch directory,
emptied between the trees, so both runs name the same paths.  A job differs
when its exit code, its stderr, its JSON report without ``timing_seconds`` or
another file it wrote differs.  Prints one line per workload and seed, then,
for each report that differs, the largest relative difference of each
numeric field over the leaves both reports hold, and exits 1 if any job
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def outputs(src: Path, name: str, seed: int, work: Path) -> dict:
    """Per job: exit code and stderr; then every file the jobs wrote, reports without ``timing_seconds``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    load = workloads.build(name, seed, work)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    got = {}
    for job in load.prepare + load.jobs:
        run = subprocess.run([sys.executable, "-m", "friedzeta", *job.argv], env=env, cwd=work,
                             capture_output=True, text=True)
        got[job.name] = (run.returncode, run.stderr)
    reports = {job.report for job in load.prepare + load.jobs}
    for path in sorted(work.iterdir()):
        if path in reports:
            report = json.loads(path.read_text())
            report.pop("timing_seconds", None)
            got[path.name] = report
        else:
            got[path.name] = path.read_bytes()
    return got


def relative_differences(a, b, field: str = "", out: dict | None = None) -> dict[str, float]:
    """The largest ``|a - b| / max(|a|, |b|)`` per field name over the numeric leaves two decoded reports hold
    at the same path (a complex value's parts are ``field.re`` and ``field.im``)."""
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            relative_differences(a[key], b[key], f"{field}.{key}" if key in ("re", "im") else key, out)
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            relative_differences(x, y, field, out)
    elif a != b and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        rel = abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf
        out[field] = max(out.get(field, 0.0), rel)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 17])
    args = parser.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                parent, change = (outputs(src, name, seed, work)
                                  for src in (args.parent_src, args.change_src))
                diffs = sorted(key for key in parent.keys() | change.keys() if parent.get(key) != change.get(key))
                differ += bool(diffs)
                print(f"{name} seed {seed}: {len(parent)} outputs, " + (f"differ: {diffs}" if diffs else "identical"))
                for key in diffs:
                    if isinstance(parent.get(key), dict) and isinstance(change.get(key), dict):
                        by_field = sorted(relative_differences(parent[key], change[key]).items(),
                                          key=lambda item: -item[1])
                        print(f"  {key}: largest relative difference by numeric field: "
                              + (", ".join(f"{name} {rel:.2g}" for name, rel in by_field) or "none"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
