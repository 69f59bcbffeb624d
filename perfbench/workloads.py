"""The phases perfbench times and the three workloads built from them.

Every phase drives ``repro`` through its public entry points only and
checks what comes back; an operation (request, stream window, fit,
predict call, encode_long call, grid job) counts as passed only when it
succeeded *and* its output passed the check.

A workload runs its own phases at full length (its *focus*) and every
other phase at a fixed small size (a *probe*), so that each run reports
every end-to-end metric while the workload's own modules get the
longest phases.  Traced runs execute the focus only.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro import fit_pipeline
from repro.data import dataset_info, generate_stream, load_dataset
from repro.exec import ProgressTracker, grid
from repro.experiments import FAST, ExperimentRunner
from repro.runtime import ArtifactStore
from repro.serve import PipelineRegistry, PipelineServer, ServeConfig, ServeError
from repro.stream import StreamingClassifier
from repro.training import TrainConfig

#: Online pipeline: the tiny moment-tiny/PCA quickstart geometry.
ONLINE_FIT = {"dataset": "Heartbeat", "model": "moment-tiny", "adapter": "pca",
              "channels": 3, "scale": 0.05, "max_length": 16, "epochs": 1}
MAX_BATCH = 16
RATE_PER_S = 100.0
OPEN_LOOP = {"focus": 1000, "probe": 300}  # focus: p99 needs >= 10 samples beyond it
BURST = 1024
STREAM = {"window": 16, "stride": 8, "windows": 200}
#: Bursts and streams are short and repeated: the host's speed drifts by
#: +-10% over seconds, and a median of short runs rides through that.
REPEATS = {"focus": 7, "probe": 5}

#: Batch workload: a mid-size surrogate fitted at full width.
BATCH_FIT = {"dataset": "Heartbeat", "scale": 0.4, "max_length": 96, "channels": 5,
             "joint_epochs": 6}
PREDICT = {"rows": 320, "batch_size": 64}
LONG = {"window": 96, "windows": 512}  # 49,152 steps, whole 16-window chunks
#: Timed predict and encode_long calls per cycle: one call is under a
#: second, and a single cycle is all a probe gets.
CALLS_PER_CYCLE = 3

#: Grid workload: a cold Table-2 slice on spawned workers.
GRID_DATASETS = ("JapaneseVowels", "Heartbeat")
GRID_ADAPTERS = ("none", "pca", "svd", "rand_proj", "var", "lcomb")
PROBE_GRID_ADAPTERS = ("pca", "svd")
PROBE_GRIDS = 3  # one 2 s grid is a single sample of worker start-up
GRID_WORKERS = 2

SETUP_REPS = 3


def _median(values) -> float:
    return float(statistics.median(values))


class FirstResultTracker(ProgressTracker):
    """A ProgressTracker that remembers when the first job finished."""

    def __init__(self, start: float) -> None:
        super().__init__()
        self.start = start
        self.first_result_s: float | None = None

    def _first(self) -> None:
        if self.first_result_s is None:
            self.first_result_s = time.perf_counter() - self.start

    def job_done(self, label, **kwargs) -> None:
        self._first()
        super().job_done(label, **kwargs)

    def job_failed(self, label, error="") -> None:
        self._first()
        super().job_failed(label, error)


class Bench:
    """State and phases of one benchmark run.

    Parameters
    ----------
    root:
        Checkout root; scratch files (the grids' stores and journals)
        go under ``root/.perfbench-tmp`` and are removed by :meth:`close`.
    seed:
        Workload seed: every request, stream, predict row and long
        series is drawn from it.  The fitted datasets are part of the
        workload definition and do not depend on it, so accuracies
        repeat exactly across seeds.
    fault:
        ``"bits"`` perturbs one served row before the bit-identity
        check; ``"inline"`` makes spawned grid workers fail at start-up,
        as a spawn-unsafe entry script would.  Both must fail the run.
    """

    def __init__(self, root: Path, seed: int, fault: str | None = None) -> None:
        self.rng = np.random.default_rng(seed)
        self.fault = fault
        self._scratch = root / ".perfbench-tmp"
        self._scratch.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=self._scratch)
        self.tmp = Path(self._tmp.name)
        self.attempted = 0
        self.passed = 0
        self.samples: dict[str, list[float]] = {}
        self.accuracies: dict[str, float] = {}
        self.latencies_ms: list[float] = []
        self.layer: dict[str, float] = {}
        self.real_rows: dict[str, int] = {}
        self._reference: dict[str, np.ndarray] = {}
        self._grids = 0
        self.tracer = None  # set by the caller for traced runs
        self.server = None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _ops(self, attempted: int, passed: int) -> None:
        self.attempted += int(attempted)
        self.passed += int(passed)

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def _phase(self, name: str, real_rows: int = 0) -> None:
        self.real_rows[name] = self.real_rows.get(name, 0) + int(real_rows)
        if self.tracer is not None:
            self.tracer.phase = name

    def close(self) -> None:
        if self.server is not None:
            self.server.close(drain=True)
        self._tmp.cleanup()
        with contextlib.suppress(OSError):  # another run may still use it
            self._scratch.rmdir()

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def _build(self) -> dict:
        """Everything the timed phases need: one set-up repetition."""
        fit = ONLINE_FIT
        online = fit_pipeline(
            fit["dataset"], model=fit["model"], adapter=fit["adapter"],
            channels=fit["channels"], seed=0, scale=fit["scale"],
            max_length=fit["max_length"], train_config=TrainConfig(epochs=fit["epochs"], seed=0),
        )
        registry = PipelineRegistry(ArtifactStore())
        registry.publish(online.pipeline, "online")
        server = PipelineServer(registry, "online", config=ServeConfig(
            max_batch=MAX_BATCH, workers=0, queue_depth=BURST))
        length, channels = online.dataset.x_train.shape[1:]
        server.warmup(length)
        # The stream and the offline reference run on the fitted
        # pipeline itself: capture its fixed-width graph too.
        online.pipeline.predict_logits(np.zeros((MAX_BATCH, length, channels)),
                                       batch_size=MAX_BATCH)
        batch_ds = load_dataset(BATCH_FIT["dataset"], seed=0, scale=BATCH_FIT["scale"],
                                max_length=BATCH_FIT["max_length"])
        return {"online": online, "server": server, "batch_ds": batch_ds}

    def setup(self, import_s: float) -> float:
        """Build every object the phases use SETUP_REPS times.

        Returns the set-up seconds: ``import_s`` (process start to
        ``import repro`` done) plus the median build.  The last build
        is kept.
        """
        # Spawned grid workers share multiprocessing's resource tracker.
        # Started lazily, alongside the first grid's workers, it made that
        # grid's start-up 0.5 s slower on some runs and not on others.
        resource_tracker.ensure_running()
        builds = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            state = self._build()
            builds.append(time.perf_counter() - start)
            if rep < SETUP_REPS - 1:
                state["server"].close(drain=True)
        self.online = state["online"]
        self.server = state["server"]
        self.batch_ds = state["batch_ds"]
        self.layer["setup.import_s"] = import_s
        ds = self.online.dataset
        self.accuracies["online"] = self.online.score(ds.x_test, ds.y_test)
        gc.collect()
        return import_s + _median(builds)

    # ------------------------------------------------------------------
    # Online phases
    # ------------------------------------------------------------------
    def _request_inputs(self, n: int) -> np.ndarray:
        length, channels = self.online.dataset.x_train.shape[1:]
        return self.rng.standard_normal((n, length, channels)).astype(np.float32)

    def _untraced(self):
        """Benchmark-side work (checks, warmups, inputs) stays out of traces."""
        return self.tracer.suspended() if self.tracer is not None else contextlib.nullcontext()

    @staticmethod
    def _served_rows(futures) -> list:
        """Each request's logits row, or ``None`` where it failed."""
        rows = []
        for future in futures:
            try:
                rows.append(future.result(timeout=60))
            except ServeError:
                rows.append(None)
        return rows

    def _check_rows(self, x: np.ndarray, served: list) -> list[bool]:
        """Per request: succeeded and bit-identical to offline predict."""
        with self._untraced():
            offline = self.online.pipeline.predict_logits(x, batch_size=MAX_BATCH)
        if self.fault == "bits":
            offline[0, 0] = np.nextafter(offline[0, 0], np.inf)
        return [row is not None and bool(np.array_equal(row, ref))
                for row, ref in zip(served, offline)]

    def open_loop(self, n: int) -> None:
        """``n`` single-sample requests sent open-loop at RATE_PER_S."""
        x = self._request_inputs(n)
        self._phase("open_loop", n)
        due_times, futures, lag = [], [], 0.0
        start = time.monotonic() + 0.01
        for i in range(n):
            due = start + i / RATE_PER_S
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lag = max(lag, time.monotonic() - due)
            due_times.append(due)
            futures.append(self.server.submit(x[i]))
        ok = self._check_rows(x, self._served_rows(futures))
        for due, future, good in zip(due_times, futures, ok):
            latency = (future.finished_at - due) * 1000.0 if good else float("inf")
            self.latencies_ms.append(latency)
        self._ops(n, sum(ok))
        self._sample("generator_lag_ms", lag * 1000.0)

    def burst(self) -> None:
        """BURST submits at once; completed requests per second."""
        x = self._request_inputs(BURST)
        self._phase("burst", BURST)
        start = time.perf_counter()
        served = self._served_rows([self.server.submit(row) for row in x])
        self._sample("burst_rps", BURST / (time.perf_counter() - start))
        ok = self._check_rows(x, served)
        self._ops(BURST, sum(ok))

    def stream(self) -> None:
        """One stream whose every timed push completes one window."""
        window, stride, windows = STREAM["window"], STREAM["stride"], STREAM["windows"]
        with self._untraced():
            series, _ = generate_stream(
                dataset_info(ONLINE_FIT["dataset"]), seed=int(self.rng.integers(2**31)),
                total_length=window + (windows - 1) * stride,
            )
        stream = StreamingClassifier(self.online.pipeline, window, stride, batch_size=MAX_BATCH)
        stream.push(series[: window - stride])  # primes the buffer; completes nothing
        self._phase("stream", windows)
        start = time.perf_counter()
        for lo in range(window - stride, len(series), stride):
            stream.push(series[lo : lo + stride])
        wall = time.perf_counter() - start
        self._sample("stream_windows_per_s", stream.windows_emitted / wall)
        with self._untraced():
            offline = self.online.pipeline.predict_logits(
                np.stack([series[p.start : p.end] for p in stream.emitted]),
                batch_size=MAX_BATCH)
        ok = [np.array_equal(p.logits, row) for p, row in zip(stream.emitted, offline)]
        self._ops(windows, sum(ok) if len(ok) == windows else 0)
        cache = stream.stats()["cache"]
        for key in ("hits", "misses", "encoded_windows"):
            self.layer[f"stream.{key}"] = self.layer.get(f"stream.{key}", 0) + cache[key]

    def serve_snapshot(self) -> None:
        batcher = self.server.stats()["batcher"]
        self.layer["serve.queue_wait_ms"] = batcher["queue_wait_s"]["mean"] * 1000.0
        self.layer["serve.batch_width"] = batcher["batch_width"]["mean"]
        self.layer["serve.batches"] = batcher["batches"]

    # ------------------------------------------------------------------
    # Batch phases
    # ------------------------------------------------------------------
    def _check_repeat(self, key: str, value: np.ndarray) -> bool:
        """Finite, and bit-identical to the first cycle's value."""
        reference = self._reference.setdefault(key, value)
        return bool(np.isfinite(value).all() and np.array_equal(value, reference))

    def batch_cycle(self) -> None:
        """Fit PCA + head, fit lcomb jointly, bulk predict, encode_long."""
        ds, fit = self.batch_ds, BATCH_FIT
        self._phase("fit")
        start = time.perf_counter()
        head = fit_pipeline(ds, adapter="pca", channels=fit["channels"], seed=0,
                            train_config=TrainConfig(seed=0))
        self._sample("fit_head_s", time.perf_counter() - start)
        start = time.perf_counter()
        joint = fit_pipeline(ds, adapter="lcomb", channels=fit["channels"], seed=0,
                             train_config=TrainConfig(epochs=fit["joint_epochs"], seed=0))
        self._sample("fit_joint_s", time.perf_counter() - start)
        with self._untraced():
            for name, fitted in (("pca", head), ("lcomb", joint)):
                logits = fitted.predict_logits(ds.x_test)
                self._ops(1, self._check_repeat(f"fit.{name}", logits))
                self.accuracies.setdefault(
                    f"batch.{name}", float((logits.argmax(axis=1) == ds.y_test).mean()))
            rows = self.rng.standard_normal(
                (PREDICT["rows"], *ds.x_train.shape[1:])).astype(np.float32)
            width = PREDICT["batch_size"]
            warm = head.predict_logits(rows[:width], batch_size=width)  # captures the bucket
        self._phase("predict", CALLS_PER_CYCLE * PREDICT["rows"])
        for _ in range(CALLS_PER_CYCLE):
            start = time.perf_counter()
            logits = head.predict_logits(rows, batch_size=width)
            self._sample("predict_rows_per_s", PREDICT["rows"] / (time.perf_counter() - start))
            self._ops(1, np.isfinite(logits).all() and np.array_equal(logits[:width], warm))

        window, windows = LONG["window"], LONG["windows"]
        with self._untraced():
            series = self.rng.standard_normal((window * windows, ds.x_train.shape[2]))
            warm = head.encode_long(series[: window * 16], window, window, return_windows=True)
        self._phase("encode_long", CALLS_PER_CYCLE * windows)
        for _ in range(CALLS_PER_CYCLE):
            start = time.perf_counter()
            encoded = head.encode_long(series, window, window, return_windows=True)
            self._sample("encode_long_steps_per_s", len(series) / (time.perf_counter() - start))
            embeddings = encoded.window_embeddings
            self._ops(1, encoded.num_windows == windows and np.isfinite(embeddings).all()
                      and np.array_equal(embeddings[:16], warm.window_embeddings))

    # ------------------------------------------------------------------
    # Grid phase
    # ------------------------------------------------------------------
    def cold_grid(self, adapters) -> None:
        """One cold grid on spawned workers with a fresh store and journal."""
        specs = grid(list(GRID_DATASETS), ["MOMENT"], list(adapters), seeds=(0,))
        workdir = self.tmp / f"grid-{self._grids}"
        self._grids += 1
        runner = ExperimentRunner(FAST, cache_dir=str(workdir / "store"))
        if self.fault == "inline":
            os.environ["PERFBENCH_FAULT"] = "inline"  # read by spawned workers
        self._phase("grid")
        start = time.perf_counter()
        tracker = FirstResultTracker(start)
        results = runner.run_specs(specs, workers=GRID_WORKERS,
                                   grid_dir=str(workdir / "journal"), tracker=tracker)
        wall = time.perf_counter() - start
        self._sample("grid_s", wall)

        # A job trained in this process means the pool was not used:
        # the grid silently degraded to inline execution.
        inline_fits = runner.instrumentation.summary().counters.get("fit_runs", 0)
        ok = [
            r is not None and str(r.status) == "OK" and r.accuracy is not None
            and bool(np.isfinite(r.accuracy))
            for r in results
        ]
        self._ops(len(specs), max(0, sum(ok) - inline_fits))
        for spec, result, good in zip(specs, results, ok):
            if good:
                self.accuracies.setdefault(f"grid.{spec.label}", result.accuracy)

        measured = [r.measured_seconds for r in results if r is not None]
        snap, store = tracker.snapshot(), runner.store.stats.snapshot()
        self._sample("exec.first_result_s", tracker.first_result_s or wall)
        self._sample("exec.busy_fraction", sum(measured) / (GRID_WORKERS * wall))
        self._sample("experiments.job_s", _median(measured))
        counts = {
            "exec.jobs_executed": snap["done"] - snap["cached"] - snap["resumed"] - snap["failed"],
            "exec.jobs_cached": snap["cached"],
            "exec.jobs_retried": snap["retried"],
            "exec.jobs_failed": snap["failed"],
            "exec.jobs_inline": inline_fits,
            "runtime.store_hits": store["hits"],
            "runtime.store_misses": store["misses"],
            "runtime.store_puts": store["puts"],
        }
        for key, value in counts.items():
            self.layer[key] = self.layer.get(key, 0) + value

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Own peak RSS plus every grid worker at the largest worker's peak."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + GRID_WORKERS * worker) / 1024.0

    def median(self, name: str) -> float:
        return _median(self.samples[name])


def _repeat(run_once, seconds: float, minimum: int) -> None:
    """Call ``run_once`` at least ``minimum`` times, more while the
    next call is expected to end within ``seconds``."""
    start, durations = time.perf_counter(), []
    while True:
        began = time.perf_counter()
        run_once()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + _median(durations) > seconds:
            return


def run_serve(bench: Bench, seconds: float, focus: bool) -> None:
    size = "focus" if focus else "probe"
    requests = OPEN_LOOP[size]
    if focus:
        requests = max(requests, int(RATE_PER_S * seconds))
    bench.open_loop(requests)
    for _ in range(REPEATS[size]):
        bench.burst()
    for _ in range(REPEATS[size]):
        bench.stream()
    bench.serve_snapshot()


def run_batch(bench: Bench, seconds: float, focus: bool) -> None:
    if focus:
        _repeat(bench.batch_cycle, seconds, minimum=2)
    else:
        bench.batch_cycle()


def run_grid(bench: Bench, seconds: float, focus: bool) -> None:
    if focus:
        _repeat(lambda: bench.cold_grid(GRID_ADAPTERS), seconds, minimum=1)
    else:
        for _ in range(PROBE_GRIDS):
            bench.cold_grid(PROBE_GRID_ADAPTERS)


#: workload -> the phase group it focuses on.
PHASES = {"online": run_serve, "batch": run_batch, "grid": run_grid}
