"""Tests for functional ops: values, gradients, numerical stability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .test_tensor import assert_grad_matches


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        a = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        assert_grad_matches(lambda: (F.relu(a) ** 2).sum(), a)

    def test_gelu_known_values(self):
        out = F.gelu(Tensor([0.0]))
        assert out.data[0] == pytest.approx(0.0)
        # gelu(x) -> x for large positive x
        assert F.gelu(Tensor([10.0])).data[0] == pytest.approx(10.0, abs=1e-4)
        # gelu(x) -> 0 for large negative x
        assert F.gelu(Tensor([-10.0])).data[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_grad(self):
        a = Tensor([-2.0, -0.5, 0.3, 1.7], requires_grad=True)
        assert_grad_matches(lambda: F.gelu(a).sum(), a)

    def test_sigmoid_values_and_stability(self):
        out = F.sigmoid(Tensor([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(out.data, [0.5, 1.0, 0.0], atol=1e-12)

    def test_sigmoid_grad(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        assert_grad_matches(lambda: F.sigmoid(a).sum(), a)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_stable_under_large_inputs(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_grad(self):
        a = Tensor(np.random.default_rng(1).normal(size=(3, 5)), requires_grad=True)
        weights = np.random.default_rng(2).normal(size=(3, 5))
        assert_grad_matches(lambda: (F.softmax(a) * Tensor(weights)).sum(), a)

    def test_log_softmax_consistency(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )

    def test_log_softmax_grad(self):
        a = Tensor(np.random.default_rng(4).normal(size=(3, 4)), requires_grad=True)
        weights = np.random.default_rng(5).normal(size=(3, 4))
        assert_grad_matches(lambda: (F.log_softmax(a) * Tensor(weights)).sum(), a)


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_with_p_zero(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_expected_scale_preserved(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))

    def test_grad_matches_mask(self):
        rng_state = np.random.default_rng(7)
        x = Tensor(np.ones(50), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng_state)
        out.sum().backward()
        # gradient equals the mask scaling exactly
        np.testing.assert_array_equal(x.grad, out.data)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(5, 16)))
        weight, bias = Tensor(np.ones(16)), Tensor(np.zeros(16))
        out = F.layer_norm(x, weight, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(5), atol=1e-3)

    def test_affine_applied(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        weight, bias = Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0))
        out = F.layer_norm(x, weight, bias)
        base = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 2.0 * base.data + 1.0, atol=1e-12)

    def test_grad(self):
        a = Tensor(np.random.default_rng(2).normal(size=(2, 6)), requires_grad=True)
        w = Tensor(np.random.default_rng(3).normal(size=6), requires_grad=True)
        b = Tensor(np.zeros(6), requires_grad=True)
        target = np.random.default_rng(4).normal(size=(2, 6))
        assert_grad_matches(lambda: ((F.layer_norm(a, w, b) - Tensor(target)) ** 2).sum(), a)
        assert_grad_matches(lambda: ((F.layer_norm(a, w, b) - Tensor(target)) ** 2).sum(), w)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        targets = np.array([0, 1])
        loss = F.cross_entropy(Tensor(logits), targets)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(2), targets]).mean()
        assert float(loss.data) == pytest.approx(expected)

    def test_cross_entropy_grad(self):
        a = Tensor(np.random.default_rng(5).normal(size=(4, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1])
        assert_grad_matches(lambda: F.cross_entropy(a, targets), a)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3))

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_mse_loss(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), np.array([0.0, 4.0]))
        assert float(loss.data) == pytest.approx((1 + 4) / 2)

    def test_masked_mse_only_counts_mask(self):
        pred = Tensor([[1.0, 5.0]])
        target = np.array([[0.0, 0.0]])
        mask = np.array([[1.0, 0.0]])
        loss = F.masked_mse_loss(pred, target, mask)
        assert float(loss.data) == pytest.approx(1.0)

    def test_masked_mse_all_zero_mask_raises(self):
        with pytest.raises(ValueError):
            F.masked_mse_loss(Tensor([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))

    def test_info_nce_prefers_aligned_pairs(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(8, 16))
        aligned = F.info_nce_loss(Tensor(emb), Tensor(emb + 0.01 * rng.normal(size=emb.shape)))
        shuffled = F.info_nce_loss(Tensor(emb), Tensor(emb[::-1].copy()))
        assert float(aligned.data) < float(shuffled.data)

    def test_info_nce_shape_validation(self):
        with pytest.raises(ValueError):
            F.info_nce_loss(Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 8))))

    def test_info_nce_grad(self):
        rng = np.random.default_rng(7)
        q = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 6)))
        assert_grad_matches(lambda: F.info_nce_loss(q, k), q, atol=1e-4, rtol=1e-3)
