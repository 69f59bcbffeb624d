"""Hypothesis properties of adapters and the autodiff core.

These complement the fixed-seed invariants in
``repro.testing.invariants`` by sweeping drawn shapes and values.
Each domain strategy below draws its shape integers plus one integer
seed and fills the values from ``np.random.default_rng(seed)``: the
values stay Gaussian (the tolerances below are sized for that) while
Hypothesis can still shrink both the geometry and the seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from repro.adapters import make_adapter
from repro.nn import Tensor

_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def series_batches(draw, min_d: int = 1) -> np.ndarray:
    """Gaussian multivariate batches ``(N, T, D)``: the adapter input."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(4, 16)), draw(st.integers(min_d, 8)))
    return np.random.default_rng(draw(_SEEDS)).normal(size=shape)


@st.composite
def broadcastable_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian ``(a, b)`` whose shapes numpy-broadcast together.

    ``b``'s shape drops leading axes of ``a``'s and squashes others
    to one: exactly the cases ``repro.nn.tensor._unbroadcast`` inverts.
    """
    shape_a = draw(array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=4))
    tail = shape_a[draw(st.integers(0, len(shape_a))) :]
    keep = draw(st.lists(st.booleans(), min_size=len(tail), max_size=len(tail)))
    shape_b = tuple(side if kept else 1 for side, kept in zip(tail, keep))
    rng = np.random.default_rng(draw(_SEEDS))
    return rng.normal(size=shape_a), rng.normal(size=shape_b)


@st.composite
def arrays(draw, shape: tuple[int, ...] | None = None, scale: float = 1.0) -> np.ndarray:
    """Gaussian arrays of ``shape`` (drawn, 1-3 dims of side 1-5, if None)."""
    if shape is None:
        shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5))
    return scale * np.random.default_rng(draw(_SEEDS)).normal(size=shape)


#: Adapters that are deterministic functions of their input statistics
#: (no RNG beyond the seed) and reduce channels D -> D'.
_REDUCING_ADAPTERS = ("pca", "scaled_pca", "svd", "var", "rand_proj")


class TestAdapterProperties:
    @pytest.mark.parametrize("name", _REDUCING_ADAPTERS)
    def test_output_shape_contract(self, name):
        @settings(max_examples=10)
        @given(x=series_batches(min_d=2))
        def property_shape(x):
            k = min(2, x.shape[-1])
            adapter = make_adapter(name, output_channels=k, seed=0)
            out = adapter.fit_transform(x)
            assert out.shape == (x.shape[0], x.shape[1], k)

        property_shape()

    @pytest.mark.parametrize("name", ("pca", "scaled_pca", "svd"))
    def test_permutation_equivariance(self, name):
        """Channel order must not matter for spectral adapters."""

        @settings(max_examples=10)
        @given(x=series_batches(min_d=3), perm_seed=st.integers(0, 50))
        def property_equivariant(x, perm_seed):
            perm = np.random.default_rng(perm_seed).permutation(x.shape[-1])
            adapter = make_adapter(name, output_channels=2, seed=0)
            permuted = make_adapter(name, output_channels=2, seed=0)
            np.testing.assert_allclose(
                adapter.fit_transform(x),
                permuted.fit_transform(x[:, :, perm]),
                atol=1e-8,
            )

        property_equivariant()

    def test_transform_is_deterministic_after_fit(self):
        @settings(max_examples=10)
        @given(x=series_batches(min_d=2))
        def property_deterministic(x):
            adapter = make_adapter("pca", output_channels=2, seed=0).fit(x)
            np.testing.assert_array_equal(adapter.transform(x), adapter.transform(x))

        property_deterministic()


class TestTensorProperties:
    def test_add_matches_numpy_broadcasting(self):
        @settings(max_examples=20)
        @given(pair=broadcastable_pairs())
        def property_add(pair):
            a, b = pair
            out = Tensor(a) + Tensor(b)
            np.testing.assert_allclose(out.data, a + b)

        property_add()

    def test_mul_gradient_unbroadcasts_to_input_shape(self):
        """Backward must return gradients with each input's own shape,
        whatever numpy broadcast the forward pass performed."""

        @settings(max_examples=20)
        @given(pair=broadcastable_pairs())
        def property_grad_shape(pair):
            a, b = pair
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            (ta * tb).sum().backward()
            assert ta.grad.shape == a.shape
            assert tb.grad.shape == b.shape

        property_grad_shape()

    def test_sum_then_mean_consistency(self):
        @settings(max_examples=20)
        @given(x=arrays())
        def property_reduce(x):
            tensor = Tensor(x)
            np.testing.assert_allclose(
                tensor.mean().data, tensor.sum().data / x.size, rtol=1e-10
            )

        property_reduce()

    def test_softmax_rows_normalised(self):
        from repro.nn import functional as F

        @settings(max_examples=15)
        @given(x=arrays(shape=(4, 6), scale=3.0))
        def property_softmax(x):
            out = F.softmax(Tensor(x), axis=-1)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-8)
            assert (out.data >= 0).all()

        property_softmax()


def test_active_profile_is_derandomized_and_database_free():
    """``tests/conftest.py`` loads one profile for every property in the
    suite: each run draws the same examples and writes no example
    database."""
    active = settings()
    assert active.derandomize
    assert active.database is None
