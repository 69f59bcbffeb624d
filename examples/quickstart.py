"""Quickstart: fine-tune a foundation model with a PCA adapter.

Reproduces the paper's core recipe on one dataset:

1. load a multivariate time-series dataset (a UEA surrogate),
2. load a pretrained foundation model (MOMENT-style),
3. put a PCA adapter in front of it to reduce 61 channels to 5,
4. fine-tune only the classification head (the encoder runs once,
   its embeddings are cached), and
5. compare against the no-adapter baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.adapters import make_adapter
from repro.data import load_dataset
from repro.models import load_pretrained
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig


def main() -> None:
    # Heartbeat: 61-channel physiological recordings, 2 classes.
    # scale/max_length shrink the surrogate so this runs in seconds on CPU.
    dataset = load_dataset("Heartbeat", seed=0, scale=0.2, max_length=96, normalize=False)
    print(f"Loaded {dataset.describe()}")

    model = load_pretrained("moment-tiny", seed=0, pretrain_steps=30)
    print(f"Foundation model: {model!r}")

    config = TrainConfig(epochs=60, batch_size=32, learning_rate=3e-3, seed=0)

    # --- adapter + head: 61 channels -> 5 principal components --------
    adapter = make_adapter("pca", output_channels=5)
    pipeline = AdapterPipeline(model, adapter, dataset.num_classes, seed=0)
    report = pipeline.fit(
        dataset.x_train,
        dataset.y_train,
        strategy=FineTuneStrategy.ADAPTER_HEAD,
        config=config,
    )
    pca_accuracy = pipeline.score(dataset.x_test, dataset.y_test)
    print(
        f"PCA adapter + head : accuracy={pca_accuracy:.3f} "
        f"(fit {report.summary.phase_seconds['total']:.2f}s, "
        f"embeddings cached: {report.used_embedding_cache})"
    )

    # --- no adapter: head-only on all 61 channels ---------------------
    baseline_model = load_pretrained("moment-tiny", seed=0, pretrain_steps=30)
    baseline = AdapterPipeline(
        baseline_model, make_adapter("none"), dataset.num_classes, seed=0
    )
    base_report = baseline.fit(
        dataset.x_train, dataset.y_train, strategy=FineTuneStrategy.HEAD, config=config
    )
    base_accuracy = baseline.score(dataset.x_test, dataset.y_test)
    print(
        f"no adapter (head)  : accuracy={base_accuracy:.3f} "
        f"(fit {base_report.summary.phase_seconds['total']:.2f}s)"
    )

    ratio = base_report.summary.phase_seconds["embedding"] / max(
        report.summary.phase_seconds["embedding"], 1e-9
    )
    print(
        f"\nThe encoder processed {dataset.num_channels} channels without the "
        f"adapter vs 5 with it — embedding pass was {ratio:.1f}x slower."
    )


if __name__ == "__main__":
    main()
