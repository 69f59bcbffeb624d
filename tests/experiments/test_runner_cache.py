"""Cross-process cache behaviour of the experiment runner.

The acceptance criterion of the ``repro.runtime`` refactor: a repeated
sweep in a *fresh* runner with a warm disk cache performs **zero**
pretraining steps and **zero** frozen-encoder forward passes (asserted
via the store/instrumentation counters), while a cold-cache run is
numerically identical to the store-less path for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.experiments import FAST, ExperimentRunner
from repro.runtime import ArtifactStore
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig


def tiny_config():
    return FAST.with_(
        seeds=(0,),
        datasets=("JapaneseVowels",),
        data_scale=0.05,
        max_length=32,
        pretrain_steps=2,
        head_epochs=3,
        joint_epochs=2,
        full_epochs=2,
    )


JOBS = (
    {"adapter": "pca", "strategy": FineTuneStrategy.ADAPTER_HEAD},
    {"adapter": "none", "strategy": FineTuneStrategy.HEAD},
)


class TestWarmDiskCache:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("repro_cache")

    @pytest.fixture(scope="class")
    def cold(self, cache_dir):
        runner = ExperimentRunner(tiny_config(), cache_dir=str(cache_dir))
        results = [runner.run("JapaneseVowels", "MOMENT", **job) for job in JOBS]
        return runner, results

    def test_cold_run_actually_trains(self, cold):
        runner, results = cold
        assert runner.instrumentation.counter("pretrain_runs") == 1  # shared across jobs
        assert runner.instrumentation.counter("fit_runs") == len(JOBS)
        assert all(r.accuracy is not None for r in results)

    def test_warm_fresh_runner_skips_all_work(self, cold, cache_dir):
        _, cold_results = cold
        # Fresh runner + fresh store: only the disk tier is shared,
        # exactly the situation of a new process over a warm cache.
        fresh = ExperimentRunner(tiny_config(), cache_dir=str(cache_dir))
        warm_results = [fresh.run("JapaneseVowels", "MOMENT", **job) for job in JOBS]

        # zero pretraining steps, zero frozen-encoder forward passes
        assert fresh.instrumentation.counter("pretrain_runs") == 0
        assert fresh.instrumentation.counter("pretrain_steps") == 0
        assert fresh.instrumentation.counter("fit_runs") == 0
        assert fresh.store.stats.hits == len(JOBS)
        assert fresh.store.stats.misses == 0

        for cold_result, warm_result in zip(cold_results, warm_results):
            assert warm_result.accuracy == cold_result.accuracy
            assert warm_result.status is cold_result.status
            assert warm_result.strategy is cold_result.strategy

    def test_cold_cache_numerically_identical_to_storeless(self, cold):
        _, cold_results = cold
        storeless = ExperimentRunner(tiny_config())  # memory-only store
        for job, cached in zip(JOBS, cold_results):
            fresh = storeless.run("JapaneseVowels", "MOMENT", **job)
            assert fresh.accuracy == cached.accuracy


class TestResultRoundTrip:
    def test_to_meta_from_meta_identity(self):
        runner = ExperimentRunner(tiny_config())
        result = runner.run("JapaneseVowels", "MOMENT", adapter="pca")
        clone = type(result).from_meta(result.to_meta())
        assert clone == result

    def test_com_job_round_trips(self):
        runner = ExperimentRunner(tiny_config())
        result = runner.run(
            "DuckDuckGeese", "MOMENT", adapter="none", strategy=FineTuneStrategy.FULL
        )
        clone = type(result).from_meta(result.to_meta())
        assert clone == result
        assert clone.accuracy is None


class TestKeyHygiene:
    def test_sweep_coordinates_do_not_invalidate_jobs(self):
        """Restricting config.datasets/seeds must not change job keys."""
        store = ArtifactStore()
        wide = ExperimentRunner(
            tiny_config().with_(datasets=("JapaneseVowels", "DuckDuckGeese")),
            store=store,
        )
        wide.run("JapaneseVowels", "MOMENT", adapter="pca")
        narrow = ExperimentRunner(tiny_config(), store=store)
        hits_before = store.stats.hits
        narrow.run("JapaneseVowels", "MOMENT", adapter="pca")
        assert store.stats.hits == hits_before + 1
        assert narrow.instrumentation.counter("fit_runs") == 0

    def test_training_knobs_do_invalidate_jobs(self):
        store = ArtifactStore()
        a = ExperimentRunner(tiny_config(), store=store)
        a.run("JapaneseVowels", "MOMENT", adapter="pca")
        b = ExperimentRunner(tiny_config().with_(head_epochs=4), store=store)
        b.run("JapaneseVowels", "MOMENT", adapter="pca")
        assert b.instrumentation.counter("fit_runs") == 1

    def test_seeds_do_not_share_store_entries(self):
        """Same data through two pretraining seeds: no cross-contamination."""
        store = ArtifactStore()
        runner = ExperimentRunner(tiny_config().with_(seeds=(0, 1)), store=store)
        a = runner.run("JapaneseVowels", "MOMENT", adapter="pca", seed=0)
        b = runner.run("JapaneseVowels", "MOMENT", adapter="pca", seed=1)
        assert runner.instrumentation.counter("pretrain_runs") == 2
        assert runner.instrumentation.counter("fit_runs") == 2
        assert a is not b


class TestCacheAblationBypass:
    def test_use_embedding_cache_false_bypasses_store(self, rng):
        """The A2 ablation must not read or write the artifact store."""
        from repro.data import load_dataset
        from repro.models import build_model
        from repro.adapters import make_adapter

        dataset = load_dataset("JapaneseVowels", seed=0, scale=0.05, max_length=32)
        store = ArtifactStore()
        model = build_model("moment-tiny", seed=0)
        model.eval()
        pipeline = AdapterPipeline(
            model, make_adapter("pca", 5), dataset.num_classes, seed=0, store=store
        )
        config = TrainConfig(epochs=2, batch_size=16, seed=0)
        report = pipeline.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.ADAPTER_HEAD,
            config=config,
            use_embedding_cache=False,
        )
        pipeline.score(dataset.x_test, dataset.y_test)
        assert not report.used_embedding_cache
        assert len(store) == 0
        assert store.stats.snapshot() == {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0, "corrupt": 0,
        }

    def test_cached_fit_populates_store(self, rng):
        from repro.data import load_dataset
        from repro.models import build_model
        from repro.adapters import make_adapter

        dataset = load_dataset("JapaneseVowels", seed=0, scale=0.05, max_length=32)
        store = ArtifactStore()
        model = build_model("moment-tiny", seed=0)
        model.eval()
        pipeline = AdapterPipeline(
            model, make_adapter("pca", 5), dataset.num_classes, seed=0, store=store
        )
        report = pipeline.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.ADAPTER_HEAD,
            config=TrainConfig(epochs=2, batch_size=16, seed=0),
        )
        assert report.used_embedding_cache
        assert len(store) == 1
        assert report.summary is not None
        assert report.summary.counters["cache_misses"] == 1
        # a refit of the identical configuration hits
        refit = pipeline.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.ADAPTER_HEAD,
            config=TrainConfig(epochs=2, batch_size=16, seed=0),
        )
        assert refit.summary.counters["cache_hits"] == 1
