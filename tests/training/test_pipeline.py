"""Tests for the AdapterPipeline (adapter + encoder + head)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapters import make_adapter
from repro.data import load_dataset
from repro.models import build_model
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("JapaneseVowels", seed=0, scale=0.15, max_length=32, normalize=False)


def quick_config(epochs=4):
    return TrainConfig(epochs=epochs, batch_size=16, learning_rate=3e-3, seed=0)


def make_pipeline(dataset, adapter_name="pca", model_name="moment-tiny"):
    model = build_model(model_name, seed=0)
    model.eval()
    adapter = make_adapter(adapter_name, 4, seed=0)
    return AdapterPipeline(model, adapter, dataset.num_classes, seed=0)


class TestStrategies:
    def test_fit_once_adapter_uses_embedding_cache(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        report = pipe.fit(dataset.x_train, dataset.y_train, config=quick_config())
        assert report.used_embedding_cache
        assert report.summary.phase_seconds["embedding"] > 0
        assert report.train_result is not None

    def test_lcomb_runs_joint_loop(self, dataset):
        pipe = make_pipeline(dataset, "lcomb")
        report = pipe.fit(dataset.x_train, dataset.y_train, config=quick_config(2))
        assert not report.used_embedding_cache
        assert "embedding" not in report.summary.phase_seconds

    def test_head_strategy_freezes_encoder(self, dataset):
        pipe = make_pipeline(dataset, "none")
        before = pipe.model.patch_embed.weight.data.copy()
        pipe.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.HEAD,
            config=quick_config(),
        )
        np.testing.assert_array_equal(pipe.model.patch_embed.weight.data, before)

    def test_full_strategy_updates_encoder(self, dataset):
        pipe = make_pipeline(dataset, "lcomb")
        before = pipe.model.patch_embed.weight.data.copy()
        pipe.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.FULL,
            config=quick_config(1),
        )
        assert not np.array_equal(pipe.model.patch_embed.weight.data, before)

    def test_adapter_head_updates_lcomb_weights(self, dataset):
        pipe = make_pipeline(dataset, "lcomb")
        pipe.adapter.fit(dataset.x_train)
        before = pipe.adapter.module.weight.data.copy()
        pipe.fit(dataset.x_train, dataset.y_train, config=quick_config(2))
        assert not np.array_equal(pipe.adapter.module.weight.data, before)

    def test_full_with_fitted_adapter_runs_encoder_in_loop(self, dataset):
        """FULL + PCA: the adapter is frozen but the encoder trains."""
        pipe = make_pipeline(dataset, "pca")
        before = pipe.model.patch_embed.weight.data.copy()
        report = pipe.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.FULL,
            config=quick_config(1),
        )
        assert not report.used_embedding_cache
        assert not np.array_equal(pipe.model.patch_embed.weight.data, before)


class TestPrediction:
    def test_predict_shapes_and_range(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        pipe.fit(dataset.x_train, dataset.y_train, config=quick_config())
        preds = pipe.predict(dataset.x_test)
        assert preds.shape == (len(dataset.x_test),)
        assert set(np.unique(preds)) <= set(range(dataset.num_classes))

    def test_score_between_zero_and_one(self, dataset):
        pipe = make_pipeline(dataset, "var")
        pipe.fit(dataset.x_train, dataset.y_train, config=quick_config())
        score = pipe.score(dataset.x_test, dataset.y_test)
        assert 0.0 <= score <= 1.0

    def test_predict_before_fit_raises(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        with pytest.raises(RuntimeError):
            pipe.predict(dataset.x_test)

    def test_logits_shape(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        pipe.fit(dataset.x_train, dataset.y_train, config=quick_config())
        logits = pipe.predict_logits(dataset.x_test)
        assert logits.shape == (len(dataset.x_test), dataset.num_classes)

    def test_training_beats_chance(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        pipe.fit(dataset.x_train, dataset.y_train, config=quick_config(40))
        chance = 1.0 / dataset.num_classes
        assert pipe.score(dataset.x_test, dataset.y_test) > chance

    def test_timing_report_fields(self, dataset):
        pipe = make_pipeline(dataset, "pca")
        report = pipe.fit(dataset.x_train, dataset.y_train, config=quick_config())
        phases = report.summary.phase_seconds
        assert phases["total"] >= phases["adapter_fit"] + phases["embedding"]
        assert report.adapter_name == "PCA"
        assert report.strategy is FineTuneStrategy.ADAPTER_HEAD


class TestStrategyEnum:
    def test_encoder_trainable(self):
        assert FineTuneStrategy.FULL.encoder_trainable
        assert not FineTuneStrategy.HEAD.encoder_trainable
        assert not FineTuneStrategy.ADAPTER_HEAD.encoder_trainable

    def test_adapter_trainable(self):
        assert FineTuneStrategy.ADAPTER_HEAD.adapter_trainable
        assert FineTuneStrategy.FULL.adapter_trainable
        assert not FineTuneStrategy.HEAD.adapter_trainable


class TestFrozenLcombIsCacheable:
    def test_head_strategy_with_lcomb_uses_cache(self, dataset):
        """A trainable adapter that the strategy never updates is as
        cacheable as a fit-once adapter."""
        pipe = make_pipeline(dataset, "lcomb")
        report = pipe.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.HEAD,
            config=quick_config(2),
        )
        assert report.used_embedding_cache
