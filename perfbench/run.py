"""reflectopt benchmark: optimize / evaluate / simulate workloads.

Run from the repository root:

    python3 perfbench/run.py --workload optimize-L --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched. Its
times are scaled to a reference host speed by a fixed kernel timed around
every command and a reference process run around every set-up probe (see
``speed.py``): the shared 2-core virtual machine this was tuned on drifts by
up to ~45% over minutes, more than any statistic over one run can absorb.
The raw wall times are in the details line. Both modes run one untimed
warm-up command (a small optimize for optimize-L) before the timed ones.

- ``setup_s``: median scaled time of fresh processes that import reflectopt,
  parse the workload's config and placement files and build its grid;
- ``run_s``: scaled time of one pass over the workload's commands (one
  optimize; one evaluate per placement of the batch; four simulates): the
  median scaled time of each command of the pass over its repeats, summed;
- ``peak_rss_mb``: peak resident memory of the benchmark process.

The work rate the workload is named for (evaluations, placements scored or
particle filter steps per second of ``run_s``) is in the details line.

``--trace 1`` runs a fixed number of passes untraced and then traced, and
reports per-layer spans (calls, total and self time per wrapped function),
layer counters and the tracing overhead. Both modes check the program's
outputs after the timed section; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it carries details: the environment, workload-specific figures such
as the front hypervolume or the tracking RMSE, and every failure message.

The program is imported from ``src/`` of the checkout this file sits in.
Work files go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
END_TO_END = {  # name: unit
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize-L", "evaluate-rect", "simulate-L", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import reflectopt from the checkout's src/ and return the package."""
    sys.path.insert(0, str(SRC))
    import reflectopt
    import reflectopt.cli  # noqa: F401  (imports every module)

    if Path(reflectopt.__file__).resolve().parent != SRC / "reflectopt":
        raise ImportError(f"reflectopt imported from {reflectopt.__file__}, not from {SRC}")
    return reflectopt


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def invoke(ro, argv, out):
    """Run one CLI command in-process with its stdout in ``out``; returns
    the exit code (None when it raised) and an error text."""
    try:
        with contextlib.redirect_stdout(out):
            return ro.cli.main(argv), ""
    except SystemExit as exc:
        return exc.code, "SystemExit"
    except Exception:
        return None, traceback.format_exc()


def run_command(wl, ro, k, calibrate=False):
    """Run CLI command k of the workload in-process and time it; with
    ``calibrate``, time the speed kernel around and during it."""
    import speed
    from workloads import CommandResult

    wl.before(k)
    argv = wl.argv(k)
    out = io.StringIO()
    if calibrate:
        (code, error), seconds_taken, samples = speed.timed(lambda: invoke(ro, argv, out))
    else:
        t0 = time.perf_counter()
        code, error = invoke(ro, argv, out)
        seconds_taken, samples = time.perf_counter() - t0, []
    return CommandResult(k, argv, code, seconds_taken, out.getvalue(), error, samples)


def run_passes(wl, ro, passes=None, seconds=None, start=0, calibrate=False):
    """Run whole passes of commands: ``passes`` of them, or for ``seconds`` and
    at least ``wl.min_passes``. Commands are numbered from ``start``."""
    results = []
    began = time.perf_counter()
    while True:
        done = len(results) // wl.pass_size
        if passes is not None and done >= passes:
            break
        if (passes is None and done >= wl.min_passes
                and time.perf_counter() - began >= seconds):
            break
        for _ in range(wl.pass_size):
            results.append(run_command(wl, ro, start + len(results), calibrate))
    return results


def pass_seconds(results, pass_size) -> float:
    """Best-of-N wall time of one pass: the fastest repeat of each command, summed."""
    return math.fsum(min(r.seconds for r in results[i::pass_size]) for i in range(pass_size))


def scaled_pass_seconds(results, pass_size) -> float:
    """Scaled time of one pass: the median scaled repeat of each command, summed."""
    import speed

    return math.fsum(
        statistics.median(speed.scaled(r.seconds, r.calibration) for r in results[i::pass_size])
        for i in range(pass_size))


def measure_setup(args, n: int) -> tuple[float, float]:
    """Median scaled and raw wall time of fresh processes doing the program's set-up."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    return speed.scaled_processes(cmd, n)


def run_dir_for(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"


def run_workload(args) -> int:
    from workloads import WORKLOADS, Checks

    run_dir = run_dir_for(args)
    if args.setup_probe:
        wl = WORKLOADS[args.workload](run_dir, args.seed, args.tiny)
        wl.setup(import_program())
        return 0

    shutil.rmtree(run_dir, ignore_errors=True)
    wl = WORKLOADS[args.workload](run_dir, args.seed, args.tiny)
    wl.prepare()
    if args.trace == 0:
        setup_s, setup_wall_s = measure_setup(args, 1 if args.tiny else SETUP_REPEATS)
    ro = import_program()
    wl.setup(ro)
    warm_up = invoke(ro, wl.warm_up_argv(), io.StringIO())

    details = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    if args.trace == 0:
        import speed

        results = run_passes(wl, ro, seconds=args.seconds, calibrate=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_s = scaled_pass_seconds(results, wl.pass_size)
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        seconds = sorted(r.seconds for r in results)
        details["passes"] = len(results) // wl.pass_size
        details["setup_wall_s"] = setup_wall_s
        details["run_wall_s_best_of_n"] = pass_seconds(results, wl.pass_size)
        details["speed_factor_median"] = speed.median_factor(r.calibration for r in results)
        details[wl.rate_name] = sum(wl.work_units(r) for r in results[:wl.pass_size]) / run_s
        details["command_ms_p50"] = 1e3 * statistics.median(seconds)
        if len(seconds) >= 2:
            details["command_s_min_q1_q3_max"] = [
                seconds[0], *statistics.quantiles(seconds, n=4)[::2], seconds[-1]]
        if len(seconds) >= 200:  # at least ten samples above the 95th percentile
            details["command_ms_p95"] = 1e3 * statistics.quantiles(seconds, n=20)[-1]
    else:
        from spans import Tracer, metric_specs

        untraced = run_passes(wl, ro, passes=wl.trace_passes)
        tracer = Tracer()
        with tracer.installed(ro):
            traced = run_passes(wl, ro, passes=wl.trace_passes, start=len(untraced))
        results = untraced + traced
        tracer.save(run_dir / "spans.npz")
        metrics = tracer.metrics()
        metrics["tracing.overhead_s"] = (pass_seconds(traced, wl.pass_size)
                                         - pass_seconds(untraced, wl.pass_size))
        units = {name: unit for name, unit, _ in metric_specs()}
        details["commands"] = {"untraced": len(untraced), "traced": len(traced)}

    failed_commands = [r for r in results if r.code != 0]
    checks = Checks()
    if not failed_commands:
        details.update(wl.check(results, ro, checks))
    failures = [f"command {r.index} exited with {r.code}: {r.error.strip()[-300:]}"
                for r in failed_commands] + checks.failures
    if warm_up[0] != 0:
        failures.insert(0, f"warm-up command exited with {warm_up[0]}: {warm_up[1].strip()[-300:]}")
    details["checks"] = checks.count
    details["failures"] = failures
    for name, unit in units.items():
        print(f"{args.workload}  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": 1 + len(results) + checks.count,  # 1: the warm-up command
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each result, then a summary."""
    summary = {}
    for name in ("optimize-L", "evaluate-rect", "simulate-L"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reflectopt" / "__init__.py").is_file():
        print(f"error: no reflectopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    # The workloads are single-threaded; pin BLAS before numpy is imported.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.exit(main())
