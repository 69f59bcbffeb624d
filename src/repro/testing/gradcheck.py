"""Finite-difference gradient checking and the op-coverage sweep.

Two layers:

* :func:`gradcheck` — a generalized engine: build the op's inputs as
  ``requires_grad`` Tensors in a target dtype, scalarize the output
  with a fixed random weighting (so misrouted gradients cannot hide
  inside a plain ``sum()``), backprop, and compare every analytic
  gradient against central finite differences computed in float64.
* :data:`OP_CHECKS` + :func:`run_op_sweep` — a case table keyed by the
  names in :data:`repro.nn.tensor.OP_REGISTRY`, swept across float32
  and float64 and across broadcasting shapes.  The sweep is
  *closed-world*: a differentiable op registered without a case, or an
  op built through ``Tensor._make`` without being registered at all,
  fails the suite **by that op's name** (see :func:`missing_checks`
  and :func:`unregistered_ops`).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..nn import functional as F
from ..nn import tensor as tensor_module
from ..nn.tensor import OP_REGISTRY, Tensor, concatenate, stack, where

__all__ = [
    "GradcheckFailure",
    "GradcheckResult",
    "OpCase",
    "OP_CHECKS",
    "gradcheck",
    "run_op_sweep",
    "missing_checks",
    "unregistered_ops",
    "assert_full_coverage",
]

#: Per-dtype (rtol, atol) defaults for analytic-vs-FD comparison.  The
#: float32 band accounts for both the op running in single precision
#: and the float64 FD reference being "too exact".
_TOLERANCES = {
    "float64": (1e-5, 1e-7),
    "float32": (1e-2, 1e-3),
}

#: Central-difference step per *reference* dtype.
_DEFAULT_EPS = {"float64": 1e-6, "float32": 1e-2}


class GradcheckFailure(AssertionError):
    """An analytic gradient disagreed with its finite-difference reference."""


class GradcheckResult:
    """Outcome of one gradcheck: op/case identity, dtype, max error."""

    __slots__ = ("op", "case", "dtype", "passed", "max_abs_err", "max_rel_err", "detail")

    def __init__(self, op, case, dtype, passed, max_abs_err, max_rel_err, detail=""):
        self.op = op
        self.case = case
        self.dtype = dtype
        self.passed = passed
        self.max_abs_err = max_abs_err
        self.max_rel_err = max_rel_err
        self.detail = detail

    def __repr__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"GradcheckResult({self.op}/{self.case} [{self.dtype}] {status} "
            f"abs={self.max_abs_err:.2e} rel={self.max_rel_err:.2e})"
        )


def _scalarize(output: Tensor) -> tuple[Tensor, np.ndarray]:
    """Reduce ``output`` to a scalar via a fixed random weighting.

    A deterministic non-uniform weighting catches gradients that land
    on the wrong output element — a plain ``.sum()`` would score those
    as correct whenever totals happen to match (e.g. permuted rows).
    """
    weights = np.random.default_rng(1234).normal(size=output.shape)
    return (output * Tensor(weights, dtype=output.data.dtype)).sum(), weights


def _weighted_eval(
    fn: Callable[[Mapping[str, Tensor]], Tensor],
    arrays: Mapping[str, np.ndarray],
    dtype: str,
) -> float:
    """Evaluate ``weights · fn(arrays)`` without gradients."""
    tensors = {name: Tensor(value.astype(dtype)) for name, value in arrays.items()}
    with tensor_module.no_grad():
        out = fn(tensors)
        scalar, _ = _scalarize(out)
    return float(scalar.data)


def gradcheck(
    fn: Callable[[Mapping[str, Tensor]], Tensor],
    arrays: Mapping[str, np.ndarray],
    dtype: str = "float64",
    *,
    eps: float | None = None,
    rtol: float | None = None,
    atol: float | None = None,
    fd_dtype: str | None = None,
    op: str = "?",
    case: str = "?",
) -> GradcheckResult:
    """Check analytic gradients of ``fn`` against central differences.

    ``fn`` maps a dict of named Tensors to a Tensor output; ``arrays``
    supplies the float64 base values for each input.  The analytic
    pass runs entirely in ``dtype``; the finite-difference reference
    runs in ``fd_dtype`` (float64 unless the op's output depends on
    the activation dtype itself, e.g. dropout's RNG draws).
    """
    fd_dtype = fd_dtype or "float64"
    eps = eps if eps is not None else _DEFAULT_EPS[fd_dtype]
    default_rtol, default_atol = _TOLERANCES[dtype]
    rtol = rtol if rtol is not None else default_rtol
    atol = atol if atol is not None else default_atol

    # Analytic pass in the target dtype.
    tensors = {
        name: Tensor(value.astype(dtype), requires_grad=True)
        for name, value in arrays.items()
    }
    output = fn(tensors)
    scalar, _ = _scalarize(output)
    scalar.backward()

    max_abs = 0.0
    max_rel = 0.0
    for name, base in arrays.items():
        analytic = tensors[name].grad
        if analytic is None:
            raise GradcheckFailure(
                f"op {op!r} case {case!r} [{dtype}]: input {name!r} received no gradient"
            )
        # Copy into C order: accumulated grads can be views with any
        # layout (e.g. a transpose backward), and the flat FD buffer
        # below must index identically to ``flat_base``.
        analytic = np.ascontiguousarray(analytic, dtype=np.float64)
        numeric_flat = np.empty(base.size, dtype=np.float64)
        flat_base = base.astype(np.float64).reshape(-1)
        for index in range(flat_base.size):
            bumped = dict(arrays)
            plus = flat_base.copy()
            plus[index] += eps
            bumped[name] = plus.reshape(base.shape)
            f_plus = _weighted_eval(fn, bumped, fd_dtype)
            minus = flat_base.copy()
            minus[index] -= eps
            bumped[name] = minus.reshape(base.shape)
            f_minus = _weighted_eval(fn, bumped, fd_dtype)
            numeric_flat[index] = (f_plus - f_minus) / (2.0 * eps)
        numeric = numeric_flat.reshape(base.shape)
        abs_err = np.abs(analytic - numeric)
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        rel_err = abs_err / np.maximum(denom, 1e-12)
        max_abs = max(max_abs, float(abs_err.max(initial=0.0)))
        max_rel = max(max_rel, float(rel_err.max(initial=0.0)))
        bad = abs_err > (atol + rtol * np.maximum(denom, 0.0))
        if np.any(bad):
            worst = np.unravel_index(int(np.argmax(abs_err)), analytic.shape)
            raise GradcheckFailure(
                f"op {op!r} case {case!r} [{dtype}]: gradient mismatch on input "
                f"{name!r} at {worst}: analytic={analytic[worst]:.6g} "
                f"numeric={numeric[worst]:.6g} "
                f"(max_abs={abs_err.max():.3g}, rtol={rtol}, atol={atol})"
            )
    return GradcheckResult(op, case, dtype, True, max_abs, max_rel)


# ----------------------------------------------------------------------
# Case table
# ----------------------------------------------------------------------
class OpCase:
    """One gradcheck scenario: named inputs + an op closure + knobs."""

    __slots__ = ("name", "fn", "arrays", "eps", "rtol", "atol", "fd_same_dtype")

    def __init__(self, name, fn, arrays, eps=None, rtol=None, atol=None,
                 fd_same_dtype=False):
        self.name = name
        self.fn = fn
        self.arrays = {key: np.asarray(val, dtype=np.float64) for key, val in arrays.items()}
        self.eps = eps
        self.rtol = rtol
        self.atol = atol
        self.fd_same_dtype = fd_same_dtype

    def run(self, dtype: str) -> GradcheckResult:
        """Gradcheck this case in ``dtype``; raises on mismatch."""
        return gradcheck(
            self.fn,
            self.arrays,
            dtype,
            eps=self.eps,
            rtol=self.rtol,
            atol=self.atol,
            fd_dtype=dtype if self.fd_same_dtype else None,
            case=self.name,
        )


def _grid(shape: tuple[int, ...], *, seed: int, low: float = -1.5, high: float = 1.5,
          min_gap: float = 0.05) -> np.ndarray:
    """Seeded values with all pairwise gaps ≥ ``min_gap``.

    Distinct, well-separated entries keep max/relu/abs/clip away from
    kinks and ties so central differences see a smooth function.
    """
    size = int(np.prod(shape, dtype=int)) if shape else 1
    levels = np.linspace(low, high, size)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-min_gap / 4, min_gap / 4, size=size)
    values = rng.permutation(levels + jitter)
    # Keep everything clear of the relu/abs kink at zero.
    values = np.where(np.abs(values) < min_gap, np.sign(values + 1e-9) * min_gap, values)
    return values.reshape(shape)


def _positive(shape: tuple[int, ...], *, seed: int) -> np.ndarray:
    return np.abs(_grid(shape, seed=seed)) + 0.5


#: Broadcast shape pairs exercised by every binary elementwise op.
_BROADCAST_PAIRS = [
    ("same", (2, 3), (2, 3)),
    ("trailing", (2, 3), (3,)),
    ("outer", (2, 1), (1, 3)),
    ("scalar", (2, 3), ()),
]


def _binary_cases(op: Callable[[Tensor, Tensor], Tensor], *,
                  b_transform: Callable[[np.ndarray], np.ndarray] | None = None) -> list[OpCase]:
    cases = []
    for label, shape_a, shape_b in _BROADCAST_PAIRS:
        a = _grid(shape_a, seed=11)
        b = _grid(shape_b, seed=23)
        if b_transform is not None:
            b = b_transform(b)
        cases.append(OpCase(label, lambda t, _op=op: _op(t["a"], t["b"]), {"a": a, "b": b}))
    return cases


def _unary_case(name: str, op: Callable[[Tensor], Tensor],
                values: np.ndarray, **knobs: Any) -> OpCase:
    return OpCase(name, lambda t, _op=op: _op(t["x"]), {"x": values}, **knobs)


def _away_from(values: np.ndarray, points: Iterable[float], margin: float = 0.05) -> np.ndarray:
    """Nudge entries that sit within ``margin`` of any kink point."""
    out = values.copy()
    for point in points:
        close = np.abs(out - point) < margin
        out[close] = point + margin * np.where(out[close] >= point, 1.0, -1.0) * 2
    return out


def _build_op_checks() -> dict[str, list[OpCase]]:
    checks: dict[str, list[OpCase]] = {}

    # --- binary arithmetic over broadcast pairs ---
    checks["add"] = _binary_cases(lambda a, b: a + b)
    checks["sub"] = _binary_cases(lambda a, b: a - b)
    checks["mul"] = _binary_cases(lambda a, b: a * b)
    checks["truediv"] = _binary_cases(
        lambda a, b: a / b,
        b_transform=lambda b: np.sign(b) * (np.abs(b) + 0.5),
    )

    # --- unary elementwise ---
    base = _grid((2, 4), seed=7)
    checks["neg"] = [_unary_case("grid", lambda x: -x, base)]
    checks["exp"] = [_unary_case("grid", lambda x: x.exp(), base)]
    checks["tanh"] = [_unary_case("grid", lambda x: x.tanh(), base)]
    checks["log"] = [_unary_case("positive", lambda x: x.log(), _positive((2, 4), seed=7))]
    checks["sqrt"] = [_unary_case("positive", lambda x: x.sqrt(), _positive((2, 4), seed=9))]
    checks["abs"] = [_unary_case("off_kink", lambda x: x.abs(), base)]
    checks["pow"] = [
        _unary_case("cube", lambda x: x ** 3.0, base),
        _unary_case("sqrt_like", lambda x: x ** 0.5, _positive((2, 3), seed=13)),
        _unary_case("inverse", lambda x: x ** -1.0,
                    np.sign(base[:, :3]) * (np.abs(base[:, :3]) + 0.5)),
    ]
    checks["clip"] = [
        _unary_case("interior", lambda x: x.clip(-1.0, 1.0),
                    _away_from(_grid((3, 3), seed=17), (-1.0, 1.0))),
    ]

    # --- matmul variants ---
    checks["matmul"] = [
        OpCase("mat_mat", lambda t: t["a"] @ t["b"],
               {"a": _grid((2, 3), seed=3), "b": _grid((3, 4), seed=5)}),
        OpCase("vec_vec", lambda t: t["a"] @ t["b"],
               {"a": _grid((4,), seed=3), "b": _grid((4,), seed=5)}),
        OpCase("vec_mat", lambda t: t["a"] @ t["b"],
               {"a": _grid((3,), seed=3), "b": _grid((3, 2), seed=5)}),
        OpCase("mat_vec", lambda t: t["a"] @ t["b"],
               {"a": _grid((2, 3), seed=3), "b": _grid((3,), seed=5)}),
        OpCase("batched", lambda t: t["a"] @ t["b"],
               {"a": _grid((2, 2, 3), seed=3), "b": _grid((2, 3, 2), seed=5)}),
        OpCase("broadcast_batch", lambda t: t["a"] @ t["b"],
               {"a": _grid((2, 2, 3), seed=3), "b": _grid((3, 2), seed=5)}),
    ]

    # --- shape ops ---
    shaped = _grid((2, 3, 2), seed=19)
    checks["reshape"] = [
        _unary_case("flatten", lambda x: x.reshape(-1), shaped),
        _unary_case("regroup", lambda x: x.reshape(3, 4), shaped),
    ]
    checks["transpose"] = [
        _unary_case("default", lambda x: x.transpose(), _grid((3, 4), seed=19)),
        _unary_case("axes", lambda x: x.transpose(1, 0, 2), shaped),
    ]
    checks["swapaxes"] = [_unary_case("mid", lambda x: x.swapaxes(0, 2), shaped)]
    checks["getitem"] = [
        _unary_case("slice", lambda x: x[1:, ::2], _grid((3, 4), seed=21)),
        _unary_case("fancy_repeats", lambda x: x[np.array([0, 2, 0, 1])],
                    _grid((3, 4), seed=21)),
        _unary_case("scalar_index", lambda x: x[1, 2], _grid((3, 4), seed=21)),
    ]
    checks["astype"] = [
        # Round-trip through the *other* precision: gradients must pass
        # through the cast unchanged.  FD runs in the same chain, with a
        # large step so float32 quantization noise stays negligible.
        _unary_case("to_f32_chain", lambda x: x.astype("float32").astype("float64") * 2.0,
                    _grid((2, 3), seed=25), eps=1e-3, rtol=1e-2, atol=1e-3,
                    fd_same_dtype=True),
        _unary_case("to_f64", lambda x: x.astype("float64") * 2.0,
                    _grid((2, 3), seed=25)),
    ]

    # --- reductions ---
    reducible = _grid((2, 3, 2), seed=27)
    checks["sum"] = [
        _unary_case("all", lambda x: x.sum(), reducible),
        _unary_case("axis", lambda x: x.sum(axis=1), reducible),
        _unary_case("keepdims", lambda x: x.sum(axis=-1, keepdims=True), reducible),
    ]
    checks["mean"] = [
        _unary_case("all", lambda x: x.mean(), reducible),
        _unary_case("axis", lambda x: x.mean(axis=0), reducible),
    ]
    checks["var"] = [
        _unary_case("all", lambda x: x.var(), reducible),
        _unary_case("axis_keepdims", lambda x: x.var(axis=-1, keepdims=True), reducible),
    ]
    checks["max"] = [
        _unary_case("all", lambda x: x.max(), reducible),
        _unary_case("axis", lambda x: x.max(axis=1), reducible),
        _unary_case("keepdims", lambda x: x.max(axis=-1, keepdims=True), reducible),
    ]

    # --- module-level structural ops ---
    checks["concatenate"] = [
        OpCase("axis0", lambda t: concatenate([t["a"], t["b"]], axis=0),
               {"a": _grid((2, 3), seed=29), "b": _grid((1, 3), seed=31)}),
        OpCase("axis1", lambda t: concatenate([t["a"], t["b"]], axis=1),
               {"a": _grid((2, 2), seed=29), "b": _grid((2, 3), seed=31)}),
    ]
    checks["stack"] = [
        OpCase("axis0", lambda t: stack([t["a"], t["b"]], axis=0),
               {"a": _grid((2, 3), seed=33), "b": _grid((2, 3), seed=35)}),
        OpCase("axis_last", lambda t: stack([t["a"], t["b"]], axis=-1),
               {"a": _grid((2, 3), seed=33), "b": _grid((2, 3), seed=35)}),
    ]
    condition = np.array([[True, False, True], [False, True, False]])
    checks["where"] = [
        OpCase("bool_mask", lambda t: where(condition, t["a"], t["b"]),
               {"a": _grid((2, 3), seed=37), "b": _grid((2, 3), seed=39)}),
        OpCase("broadcast_b", lambda t: where(condition, t["a"], t["b"]),
               {"a": _grid((2, 3), seed=37), "b": _grid((3,), seed=39)}),
    ]

    # --- activations ---
    act = _grid((2, 5), seed=41)
    checks["relu"] = [_unary_case("off_kink", F.relu, act)]
    checks["gelu"] = [_unary_case("grid", F.gelu, act)]
    checks["sigmoid"] = [_unary_case("grid", F.sigmoid, act)]
    checks["softmax"] = [
        _unary_case("last_axis", lambda x: F.softmax(x, axis=-1), act),
        _unary_case("axis0", lambda x: F.softmax(x, axis=0), act),
    ]
    checks["log_softmax"] = [
        _unary_case("last_axis", lambda x: F.log_softmax(x, axis=-1), act),
    ]
    checks["dropout"] = [
        # The mask is drawn in the activation dtype, so float32 and
        # float64 runs see different masks: the FD reference must use
        # the same dtype as the analytic pass.
        _unary_case(
            "p03",
            lambda x: F.dropout(x, 0.3, training=True, rng=np.random.default_rng(7)),
            _grid((3, 4), seed=43), fd_same_dtype=True, eps=1e-2,
        ),
    ]

    # --- fused layer_norm ---
    checks["layer_norm"] = [
        OpCase(
            "3d",
            lambda t: F.layer_norm(t["x"], t["weight"], t["bias"]),
            {
                "x": _grid((2, 3, 4), seed=45),
                "weight": _positive((4,), seed=47),
                "bias": _grid((4,), seed=49),
            },
        ),
        OpCase(
            "2d",
            lambda t: F.layer_norm(t["x"], t["weight"], t["bias"]),
            {
                "x": _grid((3, 5), seed=45),
                "weight": _positive((5,), seed=47),
                "bias": _grid((5,), seed=49),
            },
        ),
    ]

    # --- losses (fixed targets / masks; only tensors get gradients) ---
    targets = np.array([0, 2, 1])
    checks["cross_entropy"] = [
        OpCase("3x4", lambda t: F.cross_entropy(t["logits"], targets),
               {"logits": _grid((3, 4), seed=51)}),
    ]
    # Targets/masks are constants by contract (mse_loss detaches its
    # target), so only the prediction is a checked input.
    mse_target = _grid((2, 4), seed=53)
    checks["mse_loss"] = [
        OpCase("pair", lambda t: F.mse_loss(t["pred"], mse_target),
               {"pred": _grid((2, 4), seed=55)}),
    ]
    mask = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    checks["masked_mse_loss"] = [
        OpCase("half_masked",
               lambda t: F.masked_mse_loss(t["pred"], mse_target, mask),
               {"pred": _grid((2, 4), seed=57)}),
    ]
    checks["info_nce_loss"] = [
        OpCase("4x3", lambda t: F.info_nce_loss(t["q"], t["k"], temperature=0.5),
               {"q": _grid((4, 3), seed=59), "k": _grid((4, 3), seed=61)}),
    ]
    return checks


#: op name -> gradcheck cases.  Keys must cover every differentiable
#: entry of :data:`OP_REGISTRY`; :func:`missing_checks` enforces it.
OP_CHECKS: dict[str, list[OpCase]] = _build_op_checks()


# ----------------------------------------------------------------------
# Coverage enforcement
# ----------------------------------------------------------------------
def missing_checks() -> list[str]:
    """Differentiable registered ops with no entry in :data:`OP_CHECKS`."""
    return sorted(
        name
        for name, info in OP_REGISTRY.items()
        if info.differentiable and name not in OP_CHECKS
    )


def unregistered_ops() -> list[str]:
    """Graph-building callables that skipped ``@registered_op``.

    Scans the source of every public member of ``repro.nn.tensor`` and
    ``repro.nn.functional`` for the literal graph-node constructor call
    ``Tensor._make(`` — the one way an op enters the autodiff graph —
    and reports any such function missing from the registry.  This is
    the belt-and-braces half of coverage: a brand-new op cannot ship
    ungradchecked just by forgetting the decorator.
    """
    registered_qualnames = {info.qualname for info in OP_REGISTRY.values()}
    offenders = []
    for module in (tensor_module, F):
        members = dict(inspect.getmembers(module, inspect.isfunction))
        members.update(
            {
                f"Tensor.{name}": fn
                for name, fn in inspect.getmembers(Tensor, inspect.isfunction)
            }
        )
        for name, fn in members.items():
            if fn.__module__ != module.__name__:
                continue
            qualname = fn.__qualname__
            if qualname in registered_qualnames:
                continue
            # Internal plumbing (_make itself, backward helpers) is
            # allowed to reference the constructor.
            if qualname.split(".")[-1].startswith("_"):
                continue
            if tensor_module._calls_make(fn):
                offenders.append(qualname)
    return sorted(set(offenders))


def assert_full_coverage() -> None:
    """Raise naming every uncovered or unregistered op, if any."""
    problems = []
    missing = missing_checks()
    if missing:
        problems.append(
            "registered differentiable ops without a gradcheck case: "
            + ", ".join(missing)
        )
    rogue = unregistered_ops()
    if rogue:
        problems.append(
            "graph-building functions missing @registered_op: " + ", ".join(rogue)
        )
    stale = sorted(set(OP_CHECKS) - set(OP_REGISTRY))
    if stale:
        problems.append("gradcheck cases for unknown ops: " + ", ".join(stale))
    if problems:
        raise AssertionError("; ".join(problems))


def run_op_sweep(
    dtypes: Iterable[str] = ("float32", "float64"),
    ops: Iterable[str] | None = None,
) -> list[GradcheckResult]:
    """Gradcheck every covered op across ``dtypes``.

    Raises :class:`GradcheckFailure` (carrying the op's name) on the
    first mismatch; also fails if coverage has holes, so the sweep can
    never silently pass a partially-checked registry.
    """
    assert_full_coverage()
    selected = sorted(ops) if ops is not None else sorted(OP_CHECKS)
    results: list[GradcheckResult] = []
    for op_name in selected:
        for case in OP_CHECKS[op_name]:
            for dtype in dtypes:
                try:
                    result = case.run(dtype)
                except GradcheckFailure as failure:
                    raise GradcheckFailure(f"[op={op_name}] {failure}") from failure
                result.op = op_name
                results.append(result)
    return results
