"""Recency benchmark: one workload, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload s1_study --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every op twice, untraced and traced in alternating
order, and reports the per-layer metrics plus ``trace.overhead_ratio``
(traced over untraced wall time of the same ops, minus 1).
``--workload all`` runs the three workloads one after another, each in
its own process.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is
non-zero when an op fails its correctness gate, too many fits of a
study do not converge, or tracing is mis-wired.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# set before numpy is first imported (in main), and inherited by subprocesses
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("s1_study", "survey_1e5", "s6_extended")
SETUP_REPEATS = 3
# p90 needs ten samples beyond it; a run with fewer ops reports its median there
P90_MIN_OPS = 100
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports recency and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import recency"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def run_metadata(args, samples: dict) -> dict:
    import numpy
    import scipy

    def git(*cmd):
        try:
            res = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "n_jobs": 1, "samples": samples,
    }


class Run:
    """Closed loop with one client over one workload, in this process."""

    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.latencies: list[float] = []
        self.attempted = self.failed = self.fits = self.nonconverged = 0
        self.errors: list[str] = []
        self.wiring_errors: list[str] = []

    def execute(self, i: int) -> float:
        """One op, timed, then its correctness gate (untimed); returns latency."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            handle = self.workload.op(i)
        except Exception:  # an op that raises is a failed op, not a crashed run
            latency = time.perf_counter() - t0
            self._fail(i, traceback.format_exc(limit=3))
            return latency
        latency = time.perf_counter() - t0
        try:
            outcome = self.workload.check(handle)
        except Exception:
            self._fail(i, traceback.format_exc(limit=3))
            return latency
        self.fits += outcome.fits
        self.nonconverged += outcome.nonconverged
        if outcome.error:
            self._fail(i, outcome.error)
        return latency

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {message}")

    def loop(self, body) -> int:
        """Call body(i) while the next call is expected to end within --seconds.

        The first call always runs; an op longer than the window (the
        survey's) makes a one-op run instead of overrunning by a whole op.
        """
        start = time.perf_counter()
        i = 0
        while True:
            body(i)
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / i > self.seconds:
                return i


@contextlib.contextmanager
def scratch_dir(args):
    """Per-process working directory inside the checkout, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"work-{args.workload}-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def end_to_end(args, workload) -> tuple[Run, dict, dict]:
    run = Run(workload, args.seconds)
    setup = []
    with scratch_dir(args) as workdir:
        for _ in range(SETUP_REPEATS):
            imp = import_seconds()
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup.append(imp + time.perf_counter() - t0)
        run.loop(lambda i: run.latencies.append(run.execute(i)))
    lat = run.latencies
    p90 = len(lat) >= P90_MIN_OPS
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8] if p90
                     else statistics.median(lat)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": run.failed / run.attempted,
        "nonconverged_ratio": run.nonconverged / run.fits if run.fits else 0.0,
    }
    samples = {"setup_s": len(setup), "setup_samples_s": setup, "op_p50_s": len(lat),
               "op_p90_s": len(lat), "op_p90_s_percentile": 90 if p90 else 50,
               "ops": len(lat), "fits": run.fits}
    return run, metrics, samples


def traced(args, workload) -> tuple[Run, dict, dict]:
    from tracing import Tracer, layer_metrics, wiring_errors

    run = Run(workload, args.seconds)
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}

    def pair(i):
        # alternate which copy goes first so warm-up and drift cancel
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                wall[False] += run.execute(i)
                continue
            tracer.op_id = i
            tracer.install()
            try:
                with tracer.span("op"):
                    wall[True] += run.execute(i)
            finally:
                tracer.uninstall()

    with scratch_dir(args) as workdir:
        tracer.install()
        try:
            with tracer.span("setup"):
                workload.setup(args.seed, workdir)
        finally:
            tracer.uninstall()
        pairs = run.loop(pair)
    metrics, calls = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = wall[True] / wall[False] - 1.0
    run.wiring_errors = wiring_errors(args.workload, calls, tracer)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    samples = {"op_pairs": pairs, "spans": len(tracer.spans), "spans_file": str(spans_path),
               "binding_sites": tracer.sites_patched}
    return run, metrics, samples


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recency" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/recency", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracing import layer_unit

    workload = workloads.make(args.workload)
    run, metrics, samples = (traced if args.trace else end_to_end)(args, workload)
    run_error = workload.run_error(run.fits, run.nonconverged)
    meta = run_metadata(args, samples)
    meta["errors"] = run.errors + run.wiring_errors + ([run_error] if run_error else [])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        unit = UNITS.get(name) or layer_unit(name)
        print(f"  {name:44s} {value:>16.6g} {unit}")
    for err in run.errors:
        print(f"  FAILED {err}")
    for err in run.wiring_errors:
        print(f"  WIRING {err}")
    if run_error:
        print(f"  FAILED run: {run_error}")
    print("meta " + json.dumps(meta))
    if args.trace:
        reported = metrics
    else:
        reported = {k: metrics[k] for k in UNITS}
    result = {
        "correct": run.failed == 0 and not run.wiring_errors and not run_error,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)}
                    for k, v in reported.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
