"""End-to-end benchmark of the oracle → shield → deployment pipeline.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload synth_pendulum --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``synth_pendulum``   train a cloned oracle and synthesize a verified,
  persisted pendulum shield (Algorithm 1 inside CEGIS, verification, store);
* ``recheck_pendulum`` re-verify the pinned shield's branches at the nominal
  and two widened disturbance bounds, with no verdict cache;
* ``deploy_fleet``     the pinned shield guarding an untrained MLP: a
  shielded fleet in-process and over ``nproc`` fork workers, and a monitored
  fleet under uniform disturbance.

``--trace 0`` runs whole units until the next one would overrun
``--seconds`` (at least one) and reports the end-to-end metrics: the median
unit wall time (``result_s``), set-up time and peak memory.  ``--trace 1``
runs one untraced and one traced unit, asserts that both give identical
results, and reports the per-layer split of the traced unit.  Both modes run
the correctness gates; the last stdout line is the JSON result.

The benchmark only observes: it sets no BLAS, OpenMP or ``REPRO_*``
environment variable, and records the host it ran on.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def host_fingerprint() -> dict:
    """Cores, BLAS library and threads, library versions, tuning variables."""
    import ctypes

    import numpy
    import scipy

    from workloads import cpu_count

    blas = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            library = ctypes.CDLL(str(path))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    blas[package.__name__] = {"library": path.name, "threads": getter()}
                    break
    tuning = {
        name: value
        for name, value in os.environ.items()
        if name.startswith("REPRO_")
        or name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": cpu_count(),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "tuning_env": tuning,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any (forked) child, in MiB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def stop_helper_processes() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker.

    The shard pool's shared-memory arenas start it as a separate process
    that would otherwise outlive this one until it notices the exit.  The
    pool's own workers are already joined when each fleet's pool closes.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def measure(workload, seconds: float, import_seconds: float):
    """Untraced: repeated set-ups, then whole units for ``seconds``."""
    setups = [timed(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    units = []
    started = time.perf_counter()
    while True:
        elapsed, outcome = timed(workload.run)
        units.append((elapsed, outcome))
        spent = time.perf_counter() - started
        if spent + elapsed > seconds:
            break
    gates = [workload.check(outcome) for _, outcome in units]
    metrics = {
        "result_s": (statistics.median(t for t, _ in units), "s"),
        "setup_s": (import_seconds + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, gates


def measure_traced(workload):
    """One untraced and one traced unit; the per-layer split of the traced one."""
    import layers
    from tracing import Tracer

    workload.setup()
    plain_seconds, plain = timed(workload.run)
    tracer = Tracer()
    try:
        settle = layers.install(tracer)
        workload.setup()
        traced_seconds, traced = timed(workload.run)
        settle()
        values = layers.layer_metrics(tracer)
    finally:
        tracer.restore()
    gate = workload.check(plain)
    gate.record(
        workload.signature(plain) == workload.signature(traced),
        "traced and untraced units give different verdicts or counters",
    )
    values.update(workload.results(plain))
    values["trace.overhead_s"] = traced_seconds - plain_seconds
    values["failed_frac"] = gate.failed / gate.attempted
    return {name: (values.get(name, 0.0), unit) for name, unit in layers.METRICS}, [gate]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads  # imports numpy, scipy and the library

    import_seconds = time.perf_counter() - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_fingerprint(), sort_keys=True))

    scratch_root = ROOT / ".e2ebench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            metrics, gates = measure_traced(workload)
        else:
            metrics, gates = measure(workload, args.seconds, import_seconds)
    finally:
        stop_helper_processes()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted = sum(gate.attempted for gate in gates)
    failed = sum(gate.failed for gate in gates)
    for gate in gates:
        for problem in gate.problems:
            print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
