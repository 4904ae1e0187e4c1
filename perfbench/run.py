"""symind benchmark: seeded index computations through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload morse_batch --seed 1 --seconds 20 --trace 0

One client drives one process as a closed loop: each verdict is requested
only after the previous one returned, and every verdict is checked against
its oracle (see workloads.py).  Whole cycles of operations run until
``--seconds`` of loop time have passed.  BLAS threads are capped at the
number of usable cores.

``--trace 0`` reports the end-to-end metrics: verdicts per second, the
median operation time and CPU seconds per operation, all three in reference
seconds (see CALIBRATION_REF_S; the raw seconds are in the report line),
peak resident memory, and the median set-up time of this process and of
SETUP_PROBES fresh ones (import, inputs, oracles, one warm-up operation).
The report line adds fail_ratio, and op_tail_s where at least eleven
operations ran.

``--trace 1`` runs a fixed number of cycles three times (untraced, traced,
traced again), reports the per-layer metrics of the first traced pass, fails
the run when the two traced passes disagree on any span count, and writes the
spans of the first traced pass to ``.perfbench_out/``.

The last line of standard output is the result object; the line before it is
a fuller report with the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"ops_per_ref_s": "1/s", "op_p50_ref_s": "s", "cpu_per_op_ref_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Run speed on the shared host drifts by up to 1.5x between runs, for every
# kind of operation alike.  The gated times are therefore in reference
# seconds: wall or CPU seconds times CALIBRATION_REF_S over the median time of
# a fixed kernel, measured before the first cycle and after every cycle.
CALIBRATION_REF_S = 0.006
_CAL_MATRIX = [[0.3, -1.2, 0.5], [1.1, 0.4, -0.7], [-0.2, 0.9, 1.3],
               [0.8, -0.5, 0.1], [-1.0, 0.6, 0.2], [0.4, 0.3, -0.9]]


def _cap_blas_threads() -> None:
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() else cap)


def _import_workloads():
    """Import the benchmark's workloads against the checkout's own sources."""
    if not (SRC / "symind" / "__init__.py").is_file():
        raise SystemExit(f"error: no symind sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import symind
    import workloads

    if Path(symind.__file__).resolve().parent != (SRC / "symind").resolve():
        raise SystemExit(f"error: imported symind from {symind.__file__}, not {SRC}")
    return workloads


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def calibrate() -> float:
    """Median seconds of five runs of a fixed kernel of interpreter work and
    small LAPACK calls, the mix the index computations spend their time in."""
    import numpy as np

    a = np.array(_CAL_MATRIX)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(30000):
            acc += math.sqrt(i) * 0.5
        for _ in range(150):
            np.linalg.svd(a, compute_uv=False)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Executes operations one at a time and keeps every sample."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall: list = []
        self.cpu: list = []
        self.kinds: list = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.failures: list = []

    def execute(self, op, timed: bool = True) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.wall)
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # any exception is a failed verdict
            result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        else:
            error = None
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            self.completed += 1
            try:
                op.check(result)
            except Exception as exc:  # a broken oracle fails the verdict too
                error = f"{op.kind}: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.failures.append(error)
            print(f"FAILED {error}", file=sys.stderr)
        if timed:
            self.wall.append(t1 - t0)
            self.cpu.append(c1 - c0)
            self.kinds.append(op.kind)

    def absorb(self, other: "Runner") -> None:
        """Count another runner's untimed outcomes as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def run_cycles(self, workload, seed: int, cycles: int) -> None:
        for index in range(cycles):
            for op in workload.cycle(seed, index):
                self.execute(op)


def set_up(name: str, seed: int, start: float) -> tuple:
    """Import, input generation, oracles and one untimed warm-up operation;
    returns the workload, the warm-up's runner and seconds since ``start``."""
    workloads = _import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]()
    workload.cycle(seed, 0)
    warm = Runner()
    for op in workload.warm_up():
        warm.execute(op, timed=False)
    return workload, warm, time.perf_counter() - start


def probe_setups(name: str, seed: int) -> list:
    """Set-up seconds of SETUP_PROBES more fresh interpreters, each timed
    from the top of this file as the calling process is."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S).stdout
        times.append(float(out.split()[-1]))
    return times


def _tail(samples: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    workload, warm, own_setup = set_up(name, seed, T_START)
    setup_times = [own_setup] + probe_setups(name, seed)
    runner = Runner()
    runner.absorb(warm)

    start = time.perf_counter()
    index = 0
    calibrations = [calibrate()]
    while index == 0 or time.perf_counter() - start < seconds:
        for op in workload.cycle(seed, index):
            runner.execute(op)
        calibrations.append(calibrate())
        index += 1

    wall = sum(runner.wall)
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    metrics = {
        "ops_per_ref_s": runner.completed / (wall * scale),
        "op_p50_ref_s": statistics.median(runner.wall) * scale,
        "cpu_per_op_ref_s": sum(runner.cpu) * scale / len(runner.cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
        "ops_per_s": runner.completed / wall,
        "op_p50_s": statistics.median(runner.wall),
        "cpu_per_op_s": sum(runner.cpu) / len(runner.cpu),
    }
    detail = {"op_samples": len(runner.wall), "cycles": index, "timed_wall_s": wall,
              "setup_samples_s": setup_times, "calibration_s": calibrations,
              "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio",
                             "failed": runner.failed, "attempted": runner.attempted}}
    tail = _tail(runner.wall)
    if tail is not None:
        detail["op_tail_s"] = {"value": tail[0], "unit": "s", "percentile": tail[1],
                               "samples": len(runner.wall)}
    per_kind = {}
    for kind, w in zip(runner.kinds, runner.wall):
        per_kind.setdefault(kind, []).append(w)
    detail["kinds"] = {k: {"n": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
                       for k, v in per_kind.items()}
    return runner, metrics, detail


def traced(name: str, seed: int) -> tuple:
    from spans import Tracer

    workload, warm, _ = set_up(name, seed, T_START)
    cycles = workload.trace_cycles
    untraced = Runner()
    untraced.run_cycles(workload, seed, cycles)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        runner = Runner(tracer)
        with tracer:
            runner.run_cycles(workload, seed, cycles)
        passes.append((tracer, runner))

    (first, first_run), (second, second_run) = passes
    metrics = first.metrics(first_run.wall, untraced.completed / sum(untraced.wall))
    again = second.counts()
    drift = {k: (v, again[k]) for k, v in first.counts().items() if v != again[k]}
    OUT.mkdir(exist_ok=True)
    first.dump(OUT / f"trace-{name}-seed{seed}.json.gz")

    total = Runner()
    for r in (warm, untraced, first_run, second_run):
        total.absorb(r)
    detail = {"trace_cycles": cycles, "count_drift": drift,
              "fail_ratio": {"value": total.failed / total.attempted, "unit": "ratio",
                             "failed": total.failed, "attempted": total.attempted}}
    return total, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    if args.setup_probe:
        print(set_up(args.workload, args.seed, T_START)[2])
        return 0
    if args.trace:
        from spans import metric_units

        runner, metrics, detail = traced(args.workload, args.seed)
        units = metric_units()
        correct = runner.failed == 0 and not detail["count_drift"]
    else:
        runner, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
        correct = runner.failed == 0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "metrics": metrics,
              "detail": detail,
              "failures": runner.failures[:20]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
