"""Outside-in layer tracing for perfbench's ``--trace 1`` runs.

:class:`Tracer` wraps public callables of ``repro`` (methods of the
adapter, model, head, optimizer, stream, store and runner classes, and
the module-level functions the pipeline looks up by name) with spans.
Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules for the duration of a ``with tracer:`` block and
removed again on exit.

A span's **self time** is its duration minus the durations of the spans
it directly encloses on the same thread.  Self times of every span
therefore add up to the time covered by top-level spans; whatever the
traced window spent outside any span (idle waits, benchmark glue) is
``unattributed_s``.  :meth:`Tracer.attribution_error` checks that the
two add up to the wall time: top-level spans on different threads must
not overlap, or time would be counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

#: (layer name, owner, attribute) for every method-level span.  Owners
#: are resolved lazily so importing this module does not import repro.
_METHOD_SPANS = (
    ("models.encode", "repro.models.base:FoundationModel", "encode"),
    ("models.head", "repro.models.heads:ClassificationHead", "forward"),
    ("nn.backward", "repro.nn.tensor:Tensor", "backward"),
    ("stream.push", "repro.stream.classifier:StreamingClassifier", "push"),
    ("runtime.store_get", "repro.runtime.store:ArtifactStore", "get"),
    ("runtime.store_put", "repro.runtime.store:ArtifactStore", "put"),
    ("exec.run_specs", "repro.experiments.runner:ExperimentRunner", "run_specs"),
)

#: (layer name, module, function) for module-level functions, wrapped
#: in the namespace where their callers look them up.
_FUNCTION_SPANS = (
    ("models.pretrain", "repro.api", "load_pretrained"),
    ("training.embed", "repro.training.pipeline", "compute_embeddings"),
    ("training.embed", "repro.stream.cache", "compute_embeddings"),
    ("training.embed", "repro.training.embedding_cache", "compute_embeddings"),
    ("training.trainer", "repro.training.pipeline", "train_classifier_on_arrays"),
)


def _resolve(path: str):
    import importlib

    module, _, name = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, name) if name else obj


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Tracer:
    """Records layer spans and call counters while installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._top_level: list[tuple[float, float]] = []
        self._window = [0.0, 0.0]
        self._suspended = False
        self._excluded_s = 0.0
        self.phase = ""

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            nested_in_self = bool(stack) and stack[-1][0] == name
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                with tracer._lock:
                    tracer.self_s[name] += duration - frame[2]
                    if not nested_in_self:
                        tracer.calls[name] += 1
                    if not stack:
                        tracer._top_level.append((frame[1], end))
                    if name == "nn.optim_step" and not nested_in_self and any(
                        entry[0] == "training.trainer" for entry in stack
                    ):
                        tracer.counters["training.steps"] += 1
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _count_encode_rows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_model, x, *args, **kwargs):
            if tracer._suspended:
                return fn(self_model, x, *args, **kwargs)
            with tracer._lock:
                tracer.counters[f"encode_rows.{tracer.phase}"] += int(x.shape[0])
            return fn(self_model, x, *args, **kwargs)

        return wrapper

    def _count_replays(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._suspended:
                return result
            with tracer._lock:
                tracer.counters["graph.runs"] += 1
                tracer.counters["graph.replays"] += result is not None
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.adapters.base import Adapter
        from repro.nn.graph import GraphCache
        from repro.nn.optim import Optimizer

        for name, owner_path, attr in _METHOD_SPANS:
            owner = _resolve(owner_path)
            method = owner.__dict__[attr]
            if name == "models.encode":
                method = self._count_encode_rows(method)
            self._patch(owner, attr, self._span(name, method))
        for name, module_path, attr in _FUNCTION_SPANS:
            module = _resolve(module_path)
            self._patch(module, attr, self._span(name, module.__dict__[attr]))
        for cls in _subclasses(Adapter):
            for attr, name in (("fit", "adapters.fit"), ("transform", "adapters.transform"),
                               ("transform_tensor", "adapters.transform")):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._span(name, cls.__dict__[attr]))
        for cls in _subclasses(Optimizer):
            if "step" in cls.__dict__:
                self._patch(cls, "step", self._span("nn.optim_step", cls.__dict__["step"]))
        self._patch(GraphCache, "run", self._count_replays(GraphCache.__dict__["run"]))
        self._window[0] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._window[1] = time.perf_counter()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run benchmark-side work (checks, warmups) untraced.

        The block's time leaves the traced wall time.  Every thread's
        spans are dropped meanwhile, so no served work may be in flight.
        """
        self._suspended = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded_s += time.perf_counter() - start
            self._suspended = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Traced wall time, less the suspended blocks."""
        return self._window[1] - self._window[0] - self._excluded_s

    def covered_s(self) -> float:
        """Time during which at least one top-level span was open."""
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(self._top_level):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        return covered

    def unattributed_s(self) -> float:
        return self.wall_s - self.covered_s()

    def attribution_error(self) -> float:
        """|sum of self times + unattributed - wall| as a share of wall."""
        total = sum(self.self_s.values()) + self.unattributed_s()
        return abs(total - self.wall_s) / self.wall_s if self.wall_s else 0.0

    def per_call_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000.0 * self.self_s.get(name, 0.0) / calls if calls else 0.0
