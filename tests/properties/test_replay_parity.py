"""Registry-wide replay parity: compiled replay is bit-identical to eager.

This is the enforcement point for the compiled-engine contract
(:mod:`repro.nn.graph`): every registered op must either replay
bit-identically through capture → compile → run, or be declared
eager-only and *refuse* capture.  A primitive op added to the registry
without a forward kernel makes this module fail **by the op's name** —
exactly mirroring the gradcheck coverage sweep in
``test_op_coverage.py``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.nn import graph
from repro.nn.tensor import OP_REGISTRY, OpInfo, Tensor, _calls_make, no_grad
from repro.testing import (
    assert_replay_coverage,
    replay_coverage_problems,
    run_replay_sweep,
)
from repro.testing.gradcheck import OP_CHECKS

#: ops whose body builds a graph node itself, so they need a kernel
PRIMITIVE_OPS = sorted(
    name
    for name, info in OP_REGISTRY.items()
    if name not in graph.EAGER_ONLY_OPS and _calls_make(info.fn)
)


def test_replay_contract_is_fully_covered():
    """Every primitive op has a kernel or an eager-only declaration."""
    assert graph.missing_replay_kernels() == []
    assert replay_coverage_problems() == []
    assert_replay_coverage()
    graph.assert_replay_coverage()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_full_replay_sweep(dtype):
    """All cases of every op replay bit-identically (or refuse capture)."""
    results = run_replay_sweep(dtypes=(dtype,))
    assert {result.op for result in results} == set(OP_REGISTRY)
    for result in results:
        if result.op in graph.EAGER_ONLY_OPS:
            assert result.eager_only
        else:
            assert result.steps >= 1


@pytest.mark.parametrize("op", PRIMITIVE_OPS)
def test_eager_and_replay_run_the_registered_kernel(op, monkeypatch):
    """Both execution paths go through the op's one forward kernel."""
    info = OP_REGISTRY[op]
    kernel = info.kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(kernel.__name__)
        return kernel(*args, **kwargs)

    # The eager op calls its kernel by module-level name, replay reads
    # it from the registry: patch both to the same counter.
    monkeypatch.setattr(info, "kernel", counted)
    monkeypatch.setattr(sys.modules[kernel.__module__], kernel.__name__, counted)

    case = OP_CHECKS[op][0]
    names = sorted(case.arrays)
    arrays = [np.ascontiguousarray(case.arrays[n], dtype=np.float32) for n in names]

    def positional(*tensors: Tensor) -> Tensor:
        return case.fn(dict(zip(names, tensors)))

    with no_grad():
        eager = positional(*[Tensor(a) for a in arrays]).data
    assert calls, f"eager {op} did not call its registered kernel"
    compiled = graph.compile_trace(graph.capture(positional, arrays))
    del calls[:]
    replayed = compiled.run(arrays)
    assert calls, f"replayed {op} did not call its registered kernel"
    np.testing.assert_array_equal(replayed, eager)


def _frobnicate(x):  # pragma: no cover - never executed
    return Tensor._make(x.data, (x,), lambda grad: None)


def test_unknown_op_fails_by_name():
    """A new primitive op without a forward kernel is reported by its own name."""
    fake = OpInfo(
        name="frobnicate",
        qualname="_frobnicate",
        module=__name__,
        differentiable=True,
        fn=_frobnicate,
    )
    OP_REGISTRY["frobnicate"] = fake
    try:
        assert "frobnicate" in graph.missing_replay_kernels()
        problems = replay_coverage_problems()
        assert any("frobnicate" in p for p in problems)
        with pytest.raises(AssertionError, match="frobnicate"):
            run_replay_sweep()
    finally:
        del OP_REGISTRY["frobnicate"]


def test_dropout_refuses_capture_in_training_mode():
    """The one nondeterministic op cannot enter a compiled graph."""
    from repro.nn import functional as F

    rng = np.random.default_rng(0)
    x = np.linspace(-1, 1, 12).reshape(3, 4).astype(np.float32)
    with pytest.raises(graph.TraceError, match="dropout"):
        graph.capture(lambda t: F.dropout(t, 0.5, True, rng), [x])
    # Eval-mode dropout is the identity: nothing is recorded, so a
    # graph made of only dropout has no traced output and must refuse.
    with pytest.raises(graph.TraceError):
        graph.capture(lambda t: F.dropout(t, 0.5, False, rng), [x])
    # ... but inside a larger graph it simply disappears.
    trace = graph.capture(lambda t: F.dropout(F.relu(t), 0.5, False, rng), [x])
    assert [s.op for s in trace.steps] == ["relu"]
