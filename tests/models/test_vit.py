"""Tests for the ViT-style foundation model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.models import ViTModel


@pytest.fixture
def model():
    return ViTModel("vit-tiny", seed=0)


class TestConstruction:
    def test_rejects_moment_config(self):
        with pytest.raises(ValueError):
            ViTModel("moment-tiny")

    def test_embed_dim(self, model):
        assert model.embed_dim == 48


class TestEncoding:
    def test_overlapping_patch_count(self, model, rng):
        out = model.encode_univariate(nn.Tensor(rng.normal(size=(3, 48))))
        # vit-tiny: patch 16, stride 8 -> (48-16)/8+1 = 5 patches
        assert out.shape == (3, 5, 48)

    def test_encode_multivariate(self, model, rng):
        assert model.encode(rng.normal(size=(2, 48, 4))).shape == (2, 48)

    def test_statistical_tokens_preserve_amplitude(self, model, rng):
        """Patch values are normalised, but mean/std tokens keep scale info."""
        x = rng.normal(size=(1, 48, 1))
        scaled = 10.0 * x
        a = model.encode(x).data
        b = model.encode(scaled).data
        assert not np.allclose(a, b, atol=1e-3)

    def test_contrastive_embed_shape(self, model, rng):
        out = model.contrastive_embed(nn.Tensor(rng.normal(size=(4, 48))))
        assert out.shape == (4, 48)

    def test_constant_patch_does_not_nan(self, model):
        """Zero-variance patches must not divide by zero."""
        out = model.encode(np.zeros((2, 48, 2)))
        assert np.isfinite(out.data).all()

    def test_short_series_padded(self, model, rng):
        out = model.encode(rng.normal(size=(2, 5, 2)))
        assert out.shape == (2, 48)

    def test_gradients_flow_through_tokens(self, model, rng):
        x = nn.Tensor(rng.normal(size=(2, 48)), requires_grad=True)
        model.contrastive_embed(x).sum().backward()
        assert x.grad is not None
        assert model.patch_embed.weight.grad is not None
