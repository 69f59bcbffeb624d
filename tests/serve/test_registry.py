"""PipelineRegistry: publish / load round-trips, versioning, integrity.

The publisher task of the concurrency test lives at module level so
the spawn context can import it.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.adapters import make_adapter
from repro.data import load_dataset
from repro.models import build_model
from repro.nn.serialization import state_dict_digest
from repro.runtime import ArtifactStore, pipeline_catalog_key, pipeline_key
from repro.serve import (
    PipelineNotFoundError,
    PipelineRegistry,
    RegistryIntegrityError,
)
from repro.training import AdapterPipeline, TrainConfig
from repro.training.persistence import pipeline_from_state, pipeline_state


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("JapaneseVowels", seed=0, scale=0.1, max_length=32, normalize=False)


@pytest.fixture(scope="module")
def pipeline(dataset):
    model = build_model("moment-tiny", seed=0)
    model.eval()
    pipe = AdapterPipeline(model, make_adapter("pca", 4, seed=0), dataset.num_classes, seed=0)
    pipe.fit(dataset.x_train, dataset.y_train,
             config=TrainConfig(epochs=2, batch_size=16, seed=0))
    return pipe


def _publish_with_peers(registry_dir, arrays, manifest, barrier, results) -> None:
    """Spawned publisher: rebuild a pipeline, wait for every peer, publish."""
    pipeline = pipeline_from_state(arrays, manifest)
    registry = PipelineRegistry(registry_dir)
    barrier.wait(timeout=120)
    record = registry.publish(pipeline, "m")
    results.put((record.version, record.digest))


class TestPublishLoad:
    def test_round_trip_bit_identical(self, tmp_path, dataset, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        record = registry.publish(pipeline, "vowels")
        assert record.name == "vowels"
        assert record.version == 1
        assert record.ref == "vowels@v1"
        restored = registry.load("vowels")
        np.testing.assert_array_equal(
            pipeline.predict_logits(dataset.x_test),
            restored.predict_logits(dataset.x_test),
        )

    def test_memory_store_round_trip(self, dataset, pipeline):
        registry = PipelineRegistry(ArtifactStore(max_memory_entries=8))
        registry.publish(pipeline, "vowels")
        restored = registry.load("vowels")
        np.testing.assert_array_equal(
            pipeline.predict_logits(dataset.x_test[:4]),
            restored.predict_logits(dataset.x_test[:4]),
        )

    def test_versions_are_immutable_and_monotonic(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        first = registry.publish(pipeline, "p")
        second = registry.publish(pipeline, "p")
        assert (first.version, second.version) == (1, 2)
        assert registry.record("p").version == 2          # latest by default
        assert registry.record("p", version=1).digest == first.digest
        assert registry.versions("p") == [1, 2]

    def test_names_are_isolated(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        registry.publish(pipeline, "a")
        registry.publish(pipeline, "b")
        assert registry.names() == ["a", "b"]
        assert registry.record("a").version == 1

    def test_load_is_cached_hot(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg", max_hot=2)
        registry.publish(pipeline, "p")
        assert registry.load("p") is registry.load("p")

    def test_bad_name_rejected(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        with pytest.raises(ValueError, match="name"):
            registry.publish(pipeline, "bad/name")

    def test_unfitted_pipeline_rejected(self, tmp_path, dataset):
        model = build_model("moment-tiny", seed=0)
        pipe = AdapterPipeline(model, make_adapter("pca", 4), dataset.num_classes)
        registry = PipelineRegistry(tmp_path / "reg")
        with pytest.raises(ValueError):
            registry.publish(pipe, "nope")


class TestFailureModes:
    def test_unknown_name(self, tmp_path):
        registry = PipelineRegistry(tmp_path / "reg")
        with pytest.raises(PipelineNotFoundError):
            registry.load("ghost")

    def test_unknown_version(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        registry.publish(pipeline, "p")
        with pytest.raises(PipelineNotFoundError):
            registry.load("p", version=7)

    def test_corrupt_payload_is_a_hard_error(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        record = registry.publish(pipeline, "p")
        # Flip bits in the stored npz payload on disk.
        payloads = sorted((tmp_path / "reg" / "pipeline").glob("*.npz"))
        assert payloads, "expected the published payload on disk"
        for path in payloads:
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
        fresh = PipelineRegistry(tmp_path / "reg")  # no hot cache
        with pytest.raises((RegistryIntegrityError, PipelineNotFoundError)):
            fresh.load("p", version=record.version)

    def test_missing_payload_is_a_hard_error_not_a_fallback(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        registry.publish(pipeline, "p")
        latest = registry.publish(pipeline, "p")
        (tmp_path / "reg" / f"{latest.key}.npz").unlink()
        fresh = PipelineRegistry(tmp_path / "reg")  # no hot cache
        assert fresh.versions("p") == [1, 2]
        with pytest.raises(RegistryIntegrityError):
            fresh.load("p")

    def test_claimed_but_unwritten_version_is_not_listed(self, tmp_path, pipeline):
        registry = PipelineRegistry(tmp_path / "reg")
        registry.publish(pipeline, "p")
        # A publisher that claimed v2 and died before writing its payload.
        (tmp_path / "reg" / "registry" / "p" / "v2.claim").touch()
        assert registry.versions("p") == [1]
        assert registry.record("p").version == 1
        assert registry.publish(pipeline, "p").version == 3
        assert registry.versions("p") == [1, 3]


class TestCatalogRegistry:
    """A disk registry written before version claims existed lists its
    versions in one catalog artifact; it stays readable and is never
    overwritten."""

    def _write_old_format(self, root, pipeline) -> str:
        store = ArtifactStore(cache_dir=root)
        arrays, manifest = pipeline_state(pipeline)
        digest = state_dict_digest(arrays)
        store.put(
            pipeline_key("m", 1),
            arrays=arrays,
            meta={"name": "m", "version": 1, "digest": digest, "manifest": manifest},
        )
        store.put(pipeline_catalog_key(), meta={"names": {"m": [1]}})
        return digest

    def test_old_versions_stay_listed_and_loadable(self, tmp_path, dataset, pipeline):
        digest = self._write_old_format(tmp_path / "reg", pipeline)
        registry = PipelineRegistry(tmp_path / "reg")
        assert registry.names() == ["m"]
        assert registry.versions("m") == [1]
        assert registry.record("m").digest == digest
        np.testing.assert_array_equal(
            pipeline.predict_logits(dataset.x_test[:4]),
            registry.load("m").predict_logits(dataset.x_test[:4]),
        )

    def test_publishing_again_allocates_above_the_catalog(self, tmp_path, pipeline):
        digest = self._write_old_format(tmp_path / "reg", pipeline)
        registry = PipelineRegistry(tmp_path / "reg")
        arrays, manifest = pipeline_state(pipeline)
        changed = {
            name: value + 1 if name.startswith("head/") else value
            for name, value in arrays.items()
        }
        record = registry.publish(pipeline_from_state(changed, manifest), "m")
        assert record.version == 2
        fresh = PipelineRegistry(tmp_path / "reg")
        assert fresh.versions("m") == [1, 2]
        assert fresh.record("m", 1).digest == digest
        loaded, _ = pipeline_state(fresh.load("m", 1))
        assert state_dict_digest(loaded) == digest


class TestConcurrentPublish:
    def test_spawned_publishers_get_distinct_loadable_versions(self, tmp_path, pipeline):
        """Four processes publishing one name to one fresh disk registry
        at the same instant each get their own version, and each version
        loads back as exactly what its publisher wrote."""
        arrays, manifest = pipeline_state(pipeline)
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(4), ctx.Queue()
        expected = set()
        workers = []
        for index in range(4):
            # A distinct payload per publisher: shift the head's weights.
            payload = {
                name: value + index if name.startswith("head/") else value
                for name, value in arrays.items()
            }
            expected.add(state_dict_digest(payload))
            workers.append(ctx.Process(
                target=_publish_with_peers,
                args=(tmp_path / "reg", payload, manifest, barrier, results),
            ))
        for worker in workers:
            worker.start()
        try:
            published = [results.get(timeout=180) for _ in workers]
        finally:
            for worker in workers:
                worker.join(timeout=60)
                if worker.is_alive():
                    worker.terminate()
                    worker.join()
        assert [worker.exitcode for worker in workers] == [0, 0, 0, 0]

        assert sorted(version for version, _ in published) == [1, 2, 3, 4]
        assert {digest for _, digest in published} == expected
        registry = PipelineRegistry(tmp_path / "reg")
        assert registry.versions("m") == [1, 2, 3, 4]
        for version, digest in published:
            assert registry.record("m", version).digest == digest
            loaded, _ = pipeline_state(registry.load("m", version))
            assert state_dict_digest(loaded) == digest
