"""Ablation: sensitivity to the reduced channel count D'.

The paper fixes D' = 5 throughout; this ablation sweeps D' for the PCA
adapter and reports (a) surrogate accuracy and (b) simulated paper-
scale fine-tuning time, which must grow linearly in D' (the
channel-linearity the whole paper rests on).
"""

from __future__ import annotations

from repro.adapters import make_adapter
from repro.data import dataset_info, load_dataset
from repro.evaluation import render_table
from repro.models import build_model
from repro.resources import simulate_finetuning
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig

from .conftest import record

CHANNEL_SWEEP = (2, 5, 8, 12)
DATASET = "Heartbeat"  # 61 channels


def run_sweep() -> list[list[str]]:
    dataset = load_dataset(DATASET, seed=0, scale=0.15, max_length=64, normalize=False)
    rows = []
    for channels in CHANNEL_SWEEP:
        model = build_model("moment-tiny", seed=0)
        model.eval()
        pipeline = AdapterPipeline(model, make_adapter("pca", channels), dataset.num_classes, seed=0)
        pipeline.fit(
            dataset.x_train,
            dataset.y_train,
            strategy=FineTuneStrategy.ADAPTER_HEAD,
            config=TrainConfig(epochs=40, batch_size=32, learning_rate=3e-3, seed=0),
        )
        accuracy = pipeline.score(dataset.x_test, dataset.y_test)
        simulated = simulate_finetuning(
            "moment-large", dataset_info(DATASET), adapter="lcomb", reduced_channels=channels
        )
        rows.append([str(channels), f"{accuracy:.3f}", f"{simulated.seconds:.0f}s"])
    return rows


def test_ablation_reduced_channels(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = render_table(["D'", "accuracy (surrogate)", "simulated lcomb time"], rows)
    record("ablation_channels", f"# Ablation: reduced channel count D'\n{table}")
    print("\n" + table)

    times = [float(row[2].rstrip("s")) for row in rows]
    assert all(a < b for a, b in zip(times, times[1:])), "time must grow with D'"
    accuracies = [float(row[1]) for row in rows]
    assert max(accuracies) > 0.5, "sweep should contain a working configuration"
