"""Ablation: is the speedup the channel reduction or the embedding cache?

DESIGN.md's key claim: with a fit-once adapter + frozen encoder, the
speedup comes from running the encoder *once* (embedding cache), not
merely from having fewer channels.  This ablation fits the identical
(PCA, head) configuration with and without the cache and compares real
wall-clock time — same accuracy, very different cost.
"""

from __future__ import annotations

from repro.adapters import make_adapter
from repro.data import load_dataset
from repro.evaluation import render_table
from repro.models import build_model
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig


from .conftest import record


def run_ablation() -> dict[str, dict[str, float]]:
    dataset = load_dataset("NATOPS", seed=0, scale=0.3, max_length=64, normalize=False)
    config = TrainConfig(epochs=15, batch_size=32, learning_rate=3e-3, seed=0)
    results = {}
    for label, cached in (("cached", True), ("encoder-in-loop", False)):
        model = build_model("moment-tiny", seed=0)
        model.eval()
        pipeline = AdapterPipeline(model, make_adapter("pca", 5), dataset.num_classes, seed=0)
        report = pipeline.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.ADAPTER_HEAD,
            config=config,
            use_embedding_cache=cached,
        )
        results[label] = {
            "seconds": report.summary.phase_seconds["total"],
            "accuracy": pipeline.score(dataset.x_test, dataset.y_test),
            "used_cache": float(report.used_embedding_cache),
        }
    return results


def test_ablation_embedding_cache(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        [label, f"{r['seconds']:.2f}s", f"{r['accuracy']:.3f}"]
        for label, r in results.items()
    ]
    table = render_table(["configuration", "wall time", "accuracy"], rows)
    record("ablation_cache", f"# Ablation: embedding cache on/off\n{table}")
    print("\n" + table)

    cached = results["cached"]
    uncached = results["encoder-in-loop"]
    assert cached["used_cache"] == 1.0
    assert uncached["used_cache"] == 0.0
    # Caching must be decisively faster for the same configuration.
    assert uncached["seconds"] > 2.0 * cached["seconds"], results
    # And it is exactly the same computation, so accuracy is comparable.
    assert abs(cached["accuracy"] - uncached["accuracy"]) < 0.25
