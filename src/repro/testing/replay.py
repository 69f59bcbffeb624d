"""Replay-parity sweep: compiled replay must be bit-identical to eager.

The compiled engine (:mod:`repro.nn.graph`) promises that replaying a
captured graph produces the *same bits* as the eager tensor path — not
merely close values.  Each primitive op has one numpy forward kernel
that both paths call, and each composite replays its own eager body,
so parity holds by construction; this module checks it op by op,
reusing the :data:`repro.testing.gradcheck.OP_CHECKS` case table so
every registered op is exercised through capture → compile → replay
and compared exactly against its eager output.

Coverage is closed-world, mirroring :func:`gradcheck.assert_full_coverage`:
a primitive op (one whose body calls ``Tensor._make``) registered
without a forward kernel and not declared in
:data:`repro.nn.graph.EAGER_ONLY_OPS`, or a replayable op without a
parity case, fails the sweep **by that op's name**.  Eager-only ops are
instead asserted to *refuse* capture, so a nondeterministic op can
never silently enter a compiled graph.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn import graph
from ..nn import tensor as tensor_module
from ..nn.tensor import OP_REGISTRY, Tensor
from .gradcheck import OP_CHECKS, OpCase

__all__ = [
    "ReplayParityFailure",
    "ReplayResult",
    "replay_coverage_problems",
    "assert_replay_coverage",
    "run_replay_sweep",
]


class ReplayParityFailure(AssertionError):
    """A compiled replay did not reproduce the eager bits."""


class ReplayResult:
    """Outcome of one parity check: op/case/dtype plus graph shape."""

    __slots__ = ("op", "case", "dtype", "steps", "arena_bytes", "eager_only")

    def __init__(self, op, case, dtype, steps=0, arena_bytes=0, eager_only=False):
        self.op = op
        self.case = case
        self.dtype = dtype
        self.steps = steps
        self.arena_bytes = arena_bytes
        self.eager_only = eager_only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "eager-only" if self.eager_only else f"{self.steps} steps"
        return f"ReplayResult({self.op}/{self.case} [{self.dtype}] {kind})"


# ----------------------------------------------------------------------
# Coverage enforcement
# ----------------------------------------------------------------------
def replay_coverage_problems() -> list[str]:
    """Human-readable coverage holes, each naming the offending ops."""
    problems = []
    missing = graph.missing_replay_kernels()
    if missing:
        problems.append(
            "primitive ops with neither a forward kernel nor an "
            "EAGER_ONLY_OPS entry: " + ", ".join(missing)
        )
    uncased = sorted(
        name
        for name in OP_REGISTRY
        if name not in OP_CHECKS and name not in graph.EAGER_ONLY_OPS
    )
    if uncased:
        problems.append("replayable ops without a parity case: " + ", ".join(uncased))
    return problems


def assert_replay_coverage() -> None:
    """Raise naming every op missing from the replay contract, if any."""
    problems = replay_coverage_problems()
    if problems:
        raise AssertionError("; ".join(problems))


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _check_case(op_name: str, case: OpCase, dtype: str) -> ReplayResult:
    names = sorted(case.arrays)
    arrays = [np.ascontiguousarray(case.arrays[n].astype(dtype)) for n in names]

    def positional(*tensors: Tensor) -> Tensor:
        return case.fn(dict(zip(names, tensors)))

    with tensor_module.no_grad():
        eager = positional(*[Tensor(a) for a in arrays]).data
    try:
        trace = graph.capture(positional, arrays)
    except graph.TraceError as err:
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}] refused capture: {err}"
        ) from err
    compiled = graph.compile_trace(trace)
    replayed = compiled.run(arrays)
    if replayed.shape != eager.shape or replayed.dtype != eager.dtype:
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}]: replay produced "
            f"{replayed.shape} {replayed.dtype}, eager {eager.shape} {eager.dtype}"
        )
    if not np.array_equal(replayed, eager, equal_nan=True):
        diff = np.max(np.abs(np.asarray(replayed, dtype=np.float64) - eager))
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}]: replay is not "
            f"bit-identical to eager (max abs diff {diff:.3e})"
        )
    return ReplayResult(
        op_name, case.name, dtype,
        steps=len(compiled.steps), arena_bytes=compiled.arena_bytes,
    )


def _check_eager_only(op_name: str, case: OpCase, dtype: str) -> ReplayResult:
    """An eager-only op must refuse capture, never replay wrongly."""
    names = sorted(case.arrays)
    arrays = [np.ascontiguousarray(case.arrays[n].astype(dtype)) for n in names]

    def positional(*tensors: Tensor) -> Tensor:
        return case.fn(dict(zip(names, tensors)))

    try:
        trace = graph.capture(positional, arrays)
    except graph.TraceError:
        return ReplayResult(op_name, case.name, dtype, eager_only=True)
    raise ReplayParityFailure(
        f"[op={op_name}] case {case.name!r} [{dtype}] is declared eager-only "
        f"but was captured as {len(trace.steps)} steps"
    )


def run_replay_sweep(
    dtypes: Iterable[str] = ("float32", "float64"),
    ops: Iterable[str] | None = None,
) -> list[ReplayResult]:
    """Capture/compile/replay every covered op; compare bits with eager.

    Raises :class:`ReplayParityFailure` (carrying the op's name) on the
    first mismatch, and :class:`AssertionError` if the replay contract
    has coverage holes — so the sweep can never pass a registry whose
    ops could silently fall back or, worse, replay wrong values.
    """
    assert_replay_coverage()
    selected = sorted(ops) if ops is not None else sorted(OP_CHECKS)
    results: list[ReplayResult] = []
    for op_name in selected:
        checker = (
            _check_eager_only if op_name in graph.EAGER_ONLY_OPS else _check_case
        )
        for case in OP_CHECKS[op_name]:
            for dtype in dtypes:
                results.append(checker(op_name, case, dtype))
    return results
