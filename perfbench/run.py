"""friedzeta benchmark: seeded CLI workloads timed end to end, checked, traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload euler --seed 3 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each job is a fresh Python
process that imports ``friedzeta.cli`` and calls ``main(argv)``, as a CLI
user would; jobs never overlap and BLAS/OpenMP threads are pinned to 1.
One pass runs the workload's jobs in order; passes repeat until the next
one would end after ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
per-pass totals that take each job at its median over the passes, the
median set-up time of all jobs, and the largest resident set of any job.

Every time is scaled to one host speed.  The CPUs this benchmark was set
up on run at one of two speeds, about 1.6 times apart, for seconds to
minutes at a time (other tenants' load); a 30 s run can sit wholly in
either, and set-up and job times rise together.  So the driver times a
fixed mix of interpreter loop and numpy array work on the jobs' CPU just
before and just after each job, and scales the job's seconds by
``REF_S`` over the mean of the two.  The seconds as measured are printed
too.

With ``--trace 1`` untraced and traced passes alternate, and the last
line reports the per-layer metrics from the traced passes plus
``trace.overhead_ratio``.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/layers.json`` maps each layer metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
JOB_LIMIT_S = 120.0  # a job still running this long is killed and counts as failed
# The reference: an interpreter loop of REF_LOOP iterations, then ten numpy
# cos/sin passes over REF_ARRAY, like the jobs' mix of Python and array code
REF_LOOP = 100_000
REF_ARRAY = np.arange(40_000.0)
REF_S = 0.013  # its seconds on an unloaded CPU of that host (Xeon, 2 vCPU, Python 3.11, numpy 2.4)
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
PROBE = (
    "import json, sys, numpy, friedzeta\n"
    "print(json.dumps({'package': friedzeta.__file__, 'numpy': numpy.__version__,\n"
    "                  'python': sys.version.split()[0],\n"
    "                  'kernel_backend': getattr(friedzeta, 'KERNEL_BACKEND', None)}))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class JobResult:
    name: str
    failures: list[tuple[str, str]] = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scale: float = 1.0  # REF_S over the reference's seconds around this job
    rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)


def reference_s() -> float:
    """Seconds for the fixed reference work: how fast the host runs just now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    for _ in range(10):
        np.cos(REF_ARRAY * 1.1) + np.sin(REF_ARRAY * 0.7)
    return time.perf_counter() - start


def job_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    # jobs import cached bytecode, as from an installed package, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Runner:
    """Starts job processes one at a time and checks what they report."""

    def __init__(self, work: Path):
        self.work = work
        self.env = job_env()

    def _spawn(self, argv: list[str], stdout) -> tuple[int, object]:
        """Run ``argv`` to completion; return its exit code and resource usage."""
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.STDOUT,
                                env=self.env, cwd=self.work)
        timer = threading.Timer(JOB_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def probe(self) -> dict:
        """Import the package once (filling the bytecode cache) and describe it."""
        out = self.work / "probe.txt"
        with open(out, "wb") as fh:
            code, _ = self._spawn([sys.executable, "-c", PROBE], fh)
        text = out.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            raise BenchError(f"friedzeta does not import from {SRC}:\n{text}")
        info = json.loads(text.strip().splitlines()[-1])
        if not Path(info["package"]).resolve().is_relative_to(SRC):
            raise BenchError(f"friedzeta was imported from {info['package']}, not from {SRC}")
        return info

    def launch(self, job: workloads.Job, traced: bool, done: dict) -> JobResult:
        result = JobResult(job.name)
        result_path = self.work / "job-result.json"
        log_path = self.work / "job-output.txt"
        for stale in (result_path, job.report):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "job.py")]
        before = reference_s()
        with open(log_path, "wb") as log:
            launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            code, usage = self._spawn([*argv, str(launched), str(result_path), str(int(traced)), *job.argv], log)
            ended = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        result.scale = REF_S / ((before + reference_s()) / 2)
        result.cpu_s = usage.ru_utime + usage.ru_stime
        result.rss_mb = usage.ru_maxrss / 1024.0
        result.wall_s = (ended - launched) / 1e9
        if result_path.is_file():
            timing = json.loads(result_path.read_text(encoding="utf-8"))
            result.setup_s, result.wall_s = timing["setup_s"], timing["wall_s"]
            result.layers = timing.get("layers", {})
            result.absent = timing.get("absent", [])
        output = log_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            result.failures.append(("job.exit", f"exit code {code}: {output.strip()[-300:]}"))
        if "Traceback (most recent call last)" in output:
            result.failures.append(("job.traceback", output.strip()[-300:]))
        try:
            report = json.loads(job.report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            result.failures.append(("job.report", f"no readable report: {exc}"))
            return result
        done[job.name] = report
        bad = workloads.non_finite(report.get("results"))
        if bad:
            result.failures.append(("job.non_finite", ", ".join(bad[:5])))
        try:
            result.failures += job.check(report, done)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            result.failures.append(("job.check", f"report does not have the checked shape: {exc!r}"))
        return result

    def run_pass(self, workload: workloads.Workload, traced: bool, frozen: dict | None) -> list[JobResult]:
        done: dict = {}
        results = [self.launch(job, traced, done) for job in workload.jobs]
        if frozen is not None:
            try:
                values = workload.frozen(done)
            except (KeyError, TypeError, ValueError) as exc:
                results[-1].failures.append(("frozen", f"cannot read frozen values: {exc!r}"))
            else:
                for check_id, message in workloads.check_frozen(values, frozen):
                    owner = next((r for r in results if message.startswith(r.name + ":")), results[-1])
                    owner.failures.append((check_id, message))
        return results


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer values derived from one traced pass's summed job totals."""
    out = dict(totals)
    steps = totals.get("kernels.birkhoff_sums.point_steps", 0)
    out["kernels.birkhoff_sums.ns_per_point_step"] = (
        totals.get("kernels.birkhoff_sums.s", 0.0) / steps * 1e9 if steps else 0.0)
    out["kernels.birkhoff_sums.useful_ratio"] = (
        totals.get("kernels.birkhoff_sums.useful_point_steps", 0) / steps if steps else 0.0)
    zetas = ("zetas.ruelle_log_zeta", "zetas.graded_log_zeta", "zetas.selberg_log_zeta")
    terms = sum(totals.get(f"{z}.terms", 0) for z in zetas)
    out["zetas.ns_per_term"] = sum(totals.get(f"{z}.s", 0.0) for z in zetas) / terms * 1e9 if terms else 0.0
    out["cli.self_s"] = sum(v for k, v in totals.items() if k.startswith("cli.") and k.endswith(".self_s"))
    return out


def per_pass_median(passes: list[list[JobResult]], stat: str, scaled: bool = True) -> float:
    """One pass's total of ``stat``, taking each job at its median over the passes."""
    return sum(statistics.median(getattr(p[i], stat) * (p[i].scale if scaled else 1.0) for p in passes)
               for i in range(len(passes[0])))


def is_absent(metric: str, absent: set[str]) -> bool:
    """True when the metric's function, or the work count it reads, is gone."""
    for prefix, *_ in tracing.TARGETS:
        if metric.startswith(prefix + "."):
            stat = metric[len(prefix) + 1:]
            return prefix in absent or (stat not in ("s", "self_s", "calls") and f"{prefix}.counts" in absent)
    return False


def per_layer_values(passes: list[list[JobResult]], names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes of every per-layer metric that can be measured."""
    absent = {a for p in passes for r in p for a in r.absent}
    per_pass = []
    for results in passes:
        totals: dict[str, float] = {}
        for r in results:
            for key, value in r.layers.items():
                if key.endswith((".s", ".self_s")):
                    value *= r.scale
                totals[key] = totals.get(key, 0) + value
        per_pass.append(layer_metrics(totals))
    values, missing = {}, []
    for name in names:
        if is_absent(name, absent):
            missing.append(name)
        else:
            values[name] = statistics.median(p.get(name, 0) for p in per_pass)
    return values, missing


def not_run(names: list[str], passes: list[list[JobResult]]) -> list[str]:
    """Per-layer metrics of functions that no traced job of the workload called."""
    called = {key.rsplit(".", 1)[0] for p in passes for r in p for key in r.layers if key.endswith(".calls")}
    spans = [t[0] for t in tracing.TARGETS] + [n[:-2] for n in names if n.startswith("cli.") and n.endswith(".s")]
    out = []
    for name in names:
        span = next((s for s in spans if name.startswith(s + ".")), None)
        if span is not None and span not in called:
            out.append(name)
    return out


def run(args, spec: dict) -> dict:
    if not (SRC / "friedzeta" / "cli.py").is_file():
        raise BenchError(f"no friedzeta sources under {SRC}")
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(work, args, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run_in(work: Path, args, spec: dict) -> dict:
    load_start = os.getloadavg()[0]
    cpus = sorted(os.sched_getaffinity(0))
    # the reference and the jobs share one CPU, so it times the CPU they run on
    os.sched_setaffinity(0, cpus[:1])
    runner = Runner(work)
    package = runner.probe()
    workload = workloads.build(args.workload, args.seed, work, args.size)
    for job in workload.prepare:
        prep = runner.launch(job, False, {})
        if prep.failures:
            raise BenchError(f"preparing {args.workload} failed: {prep.failures}")
    frozen = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        frozen = workloads.load_frozen(BENCH_DIR / "frozen.json", args.workload)
    kinds = (False, True) if args.trace else (False,)
    plain: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            (traced if kind else plain).append(runner.run_pass(workload, kind, frozen))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break

    jobs = [r for p in plain + traced for r in p]
    attempted, failed = len(jobs), sum(1 for r in jobs if r.failures)
    failures = [(r.name, cid, msg) for r in jobs for cid, msg in r.failures]
    unexpected = [f for f in failures if f[1] not in workloads.KNOWN_DEFECTS]
    plain_jobs = [r for p in plain for r in p]
    setups = [r.setup_s * r.scale for r in plain_jobs if r.setup_s is not None]
    if not setups:
        raise BenchError(f"no {args.workload} job reached main: {failures[:3]}")
    wall = per_pass_median(plain, "wall_s")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": per_pass_median(plain, "cpu_s"),
        "peak_rss_mb": max(r.rss_mb for r in plain_jobs),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_ratio"]
        values, missing = per_layer_values(traced, names)
        idle = not_run([n for n in names if n not in missing], traced)
        values["trace.overhead_ratio"] = per_pass_median(traced, "wall_s") / wall - 1.0
    else:
        values, missing, idle = end_to_end, [], []

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "git_sha": git_sha(), "python": package["python"], "numpy": package["numpy"],
        "kernel_backend": package["kernel_backend"], "nproc": os.cpu_count(),
        "cpus_usable": len(cpus), "cpu": cpus[0], "thread_pins": THREAD_PINS,
        "platform": platform.platform(), "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "passes": len(plain), "traced_passes": len(traced),
    }
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, check_id, message in failures:
        note = workloads.KNOWN_DEFECTS.get(check_id)
        print(f"check failed: {name} {check_id}: {message}" + (f" [known defect: {note}]" if note else ""))
    for name, value in end_to_end.items():
        print(f"{args.workload:<10} {name:<14} {value:>14.6f} {units[name]}")
    measured = {
        "setup_s": statistics.median(r.setup_s for r in plain_jobs if r.setup_s is not None),
        "wall_s": per_pass_median(plain, "wall_s", scaled=False),
        "cpu_s": per_pass_median(plain, "cpu_s", scaled=False),
    }
    for name, value in measured.items():
        print(f"{args.workload:<10} {name:<14} {value:>14.6f} s as measured (not scaled)")
    for i, job in enumerate(workload.jobs):
        print(f"{args.workload:<10} {job.name} wall_s by pass: " + " ".join(f"{p[i].wall_s:.4f}" for p in plain))
    print(f"{args.workload:<10} host speed by pass: " + " ".join(
        f"{statistics.median(r.scale for r in p):.3f}" for p in plain))
    print(f"{args.workload:<10} {'fail_ratio':<14} {failed / attempted:>14.6f} ratio ({failed} of {attempted} jobs)")
    for name in missing:
        print(f"absent: {name} (the traced function no longer exists)")
    if idle:
        print(f"not run on {args.workload} (reported as 0): " + " ".join(idle))
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'smoke' runs every job at tiny sizes to test the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so the running job is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        result = run(args, spec)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
