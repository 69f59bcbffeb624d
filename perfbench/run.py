"""perfbench: the repository benchmark (see perfbench/README.md).

One workload, with the arguments every automated run passes::

    python3 perfbench/run.py --workload online --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The line
before it is a ``perfbench-record`` JSON line with the environment
fingerprint and the raw samples.

Every workload, with a table of every metric by name::

    python3 perfbench/run.py            # --workload all

Exits non-zero when any operation failed its correctness check.
``--fault bits|inline`` injects a fault that must make the run fail.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every process it starts: the
# environment is inherited by spawned grid workers and import probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_CACHE_DIR", None)

if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_FAULT") == "inline":
    # Spawned workers import the parent's main script first.  Failing
    # here is what a spawn-unsafe entry script does to a worker pool.
    raise SystemExit("perfbench: worker start-up failed (injected --fault inline)")

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("online", "batch", "grid")

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio", "accuracy": "ratio",
    "request_p50_ms": "ms", "burst_rps": "1/s",
    "stream_windows_per_s": "1/s", "fit_head_s": "s", "fit_joint_s": "s",
    "predict_rows_per_s": "1/s", "encode_long_steps_per_s": "1/s", "grid_s": "s",
}

#: The spans the tracer records; their self seconds plus
#: ``unattributed_s`` add up to ``trace.wall_s``.
SPAN_LAYERS = (
    "adapters.fit", "adapters.transform", "models.pretrain", "models.encode", "models.head",
    "training.embed", "training.trainer", "nn.backward", "nn.optim_step", "stream.push",
    "runtime.store_get", "runtime.store_put", "exec.run_specs",
)
PER_CALL_LAYERS = ("adapters.fit", "adapters.transform", "models.encode", "models.head",
                   "stream.push", "runtime.store_get")
INFERENCE_PHASES = ("open_loop", "burst", "stream", "predict", "encode_long")
COUNTERS = ("exec.jobs_executed", "exec.jobs_cached", "exec.jobs_retried", "exec.jobs_failed",
            "exec.jobs_inline", "runtime.store_hits", "runtime.store_misses",
            "runtime.store_puts")

#: per-layer metric -> unit
PER_LAYER = {
    "request_p99_ms": "ms", "serve.queue_wait_ms": "ms", "serve.batch_width": "count",
    "serve.batches": "count", "models.encoded_rows_per_real_row": "ratio",
    "nn.graph.replay_rate": "ratio", "stream.cache_hit_rate": "ratio",
    "stream.encoded_windows": "count", "training.steps": "count", "setup.import_s": "s",
    "exec.first_result_s": "s", "exec.busy_fraction": "ratio", "experiments.job_s": "s",
    **{name: "count" for name in COUNTERS},
    **{f"{name}_s": "s" for name in SPAN_LAYERS},
    **{f"{name}_ms": "ms" for name in PER_CALL_LAYERS},
    "unattributed_s": "s", "trace.wall_s": "s", "trace.attribution_error": "ratio",
}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    Linux ``PR_SET_CHILD_SUBREAPER``: an orphaned grandchild is
    re-parented to this process instead of to init, so
    :func:`stop_children` sees and reaps it.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def _child_pids() -> list[int]:
    """Pids of this process's live or unreaped children, read from /proc."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while scanning
        if int(fields[1]) == me:  # field 4: ppid
            pids.append(int(entry.name))
    return pids


def _reap(pid: int, timeout_s: float) -> bool:
    """Wait up to ``timeout_s`` for child ``pid`` to end; True once reaped."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True  # already reaped elsewhere
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Spawned grid workers share multiprocessing's resource tracker, a
    helper process that would otherwise outlive this one by a few
    milliseconds: it is stopped and waited for first.  Anything else
    still running (or re-parented here by :func:`adopt_orphans`) gets
    SIGTERM, then SIGKILL, and is reaped.
    """
    from multiprocessing import active_children, resource_tracker

    active_children()  # joins the multiprocessing children that have ended
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        with contextlib.suppress(OSError):  # it already ended
            tracker._stop()
    for _ in range(3):  # a process ended here may have orphaned another
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pid in pids:
            if not _reap(pid, 5.0):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                _reap(pid, 5.0)


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def request_p99_ms(bench) -> float:
    """Open-loop p99: reported, not gated (perfbench/README.md says why)."""
    import numpy as np

    return float(np.percentile(bench.latencies_ms, 99)) if bench.latencies_ms else 0.0


def end_to_end(bench, setup_s: float) -> dict:
    """The end-to-end metrics this run has data for (all of them untraced)."""
    import numpy as np

    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": bench.peak_rss_mb(),
        "success_rate": bench.passed / bench.attempted,
        "accuracy": float(np.mean(list(bench.accuracies.values()))),
    }
    if bench.latencies_ms:
        metrics["request_p50_ms"] = float(np.percentile(bench.latencies_ms, 50))
    for name in END_TO_END:
        if name in bench.samples:
            metrics[name] = bench.median(name)
    return metrics


def per_layer(bench, tracer) -> dict:
    """Layer metrics of a traced run; layers it did not exercise read 0."""
    layer, counters = bench.layer, tracer.counters

    def median_or_zero(name: str) -> float:
        return bench.median(name) if name in bench.samples else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    encoded = sum(counters.get(f"encode_rows.{phase}", 0) for phase in INFERENCE_PHASES)
    real = sum(bench.real_rows.get(phase, 0) for phase in INFERENCE_PHASES)
    hits, misses = layer.get("stream.hits", 0), layer.get("stream.misses", 0)
    metrics = {
        "request_p99_ms": request_p99_ms(bench),
        "serve.queue_wait_ms": layer.get("serve.queue_wait_ms", 0.0),
        "serve.batch_width": layer.get("serve.batch_width", 0.0),
        "serve.batches": layer.get("serve.batches", 0),
        "models.encoded_rows_per_real_row": ratio(encoded, real),
        "nn.graph.replay_rate": ratio(counters.get("graph.replays", 0),
                                      counters.get("graph.runs", 0)),
        "stream.cache_hit_rate": ratio(hits, hits + misses),
        "stream.encoded_windows": layer.get("stream.encoded_windows", 0),
        "training.steps": counters.get("training.steps", 0),
        "setup.import_s": layer["setup.import_s"],
        "exec.first_result_s": median_or_zero("exec.first_result_s"),
        "exec.busy_fraction": median_or_zero("exec.busy_fraction"),
        "experiments.job_s": median_or_zero("experiments.job_s"),
    }
    for name in COUNTERS:
        metrics[name] = layer.get(name, 0)
    for name in SPAN_LAYERS:
        metrics[f"{name}_s"] = tracer.self_s.get(name, 0.0)
    for name in PER_CALL_LAYERS:
        metrics[f"{name}_ms"] = tracer.per_call_ms(name)
    metrics["unattributed_s"] = tracer.unattributed_s()
    metrics["trace.wall_s"] = tracer.wall_s
    metrics["trace.attribution_error"] = tracer.attribution_error()
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 fault: str | None) -> int:
    import_repro()
    import_s = process_age_s()
    import workloads

    bench = workloads.Bench(ROOT, seed, fault=fault)
    phase_s = {}
    try:
        setup_s = bench.setup(import_s)
        if trace:
            from tracing import Tracer

            with Tracer() as tracer:
                bench.tracer = tracer
                workloads.PHASES[workload](bench, seconds, focus=True)
            bench.tracer = None
            bench._ops(1, tracer.attribution_error() <= 0.05)
            metrics, units = per_layer(bench, tracer), PER_LAYER
        else:
            for name, run_phases in workloads.PHASES.items():
                start = time.perf_counter()
                run_phases(bench, seconds, focus=name == workload)
                phase_s[name] = time.perf_counter() - start
        measured = end_to_end(bench, setup_s)
        if not trace:
            metrics, units = measured, END_TO_END
    finally:
        bench.close()

    record = {"workload": workload, "trace": trace, "seconds": seconds, "fault": fault,
              "environment": environment(seed), "setup_s": setup_s,
              "phase_s": phase_s, "end_to_end": measured,
              "request_p99_ms": request_p99_ms(bench), "samples": bench.samples,
              "accuracies": bench.accuracies}
    print("perfbench-record " + json.dumps(record), flush=True)
    failed = bench.attempted - bench.passed
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; prints every metric by name."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.fault:
            command += ["--fault", args.fault]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})")
            status = 1
            continue
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {workload}/{name:<34} {metric['value']:>14.6g} {metric['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the workload's own phases run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("bits", "inline"), default=None,
                        help="inject a fault the correctness checks must catch")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    adopt_orphans()
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.fault)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
