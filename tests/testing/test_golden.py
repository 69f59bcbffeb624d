"""Tests for the golden regression store and ``repro selfcheck``."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime import golden_key
from repro.testing import (
    SCENARIOS,
    SMOKE_SCENARIOS,
    check_goldens,
    compute_metrics,
    golden_store,
    resolve_golden_dir,
)

SMOKE = SMOKE_SCENARIOS[0]


class TestResolution:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path / "env"))
        assert resolve_golden_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path / "env"))
        assert resolve_golden_dir() == tmp_path / "env"

    def test_default_is_local_goldens(self, monkeypatch):
        monkeypatch.delenv("REPRO_GOLDEN_DIR", raising=False)
        assert str(resolve_golden_dir()) == "goldens"

    def test_keys_are_stable_and_namespaced(self):
        key = golden_key("pca_head_f32", "float32")
        assert key.startswith("golden/")
        assert key == golden_key("pca_head_f32", "float32")
        assert key != golden_key("pca_head_f32", "float64")

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="no_such_scenario"):
            check_goldens(tmp_path, names=["no_such_scenario"])


class TestCheckGoldens:
    def test_missing_snapshot_reported(self, tmp_path):
        (result,) = check_goldens(tmp_path, names=[SMOKE])
        assert result.status == "missing"
        assert not result.passed
        assert "update-golden" in result.detail

    def test_update_then_match_round_trip(self, tmp_path):
        (updated,) = check_goldens(tmp_path, names=[SMOKE], update=True)
        assert updated.status == "updated"
        assert updated.passed
        (checked,) = check_goldens(tmp_path, names=[SMOKE])
        assert checked.status == "match"
        assert checked.metrics == updated.metrics

    def test_metrics_are_deterministic(self):
        scenario = next(s for s in SCENARIOS if s.name == SMOKE)
        first = compute_metrics(scenario)
        second = compute_metrics(scenario)
        assert first == second
        assert set(first) >= {"first_loss", "final_loss", "test_accuracy"}

    def test_tampered_snapshot_reports_drift_by_metric(self, tmp_path):
        check_goldens(tmp_path, names=[SMOKE], update=True)
        _inject_drift(tmp_path)
        (result,) = check_goldens(tmp_path, names=[SMOKE])
        assert result.status == "drift"
        assert not result.passed
        assert "drifted from snapshot" in result.detail


def _inject_drift(golden_dir) -> None:
    """Perturb the stored snapshot beyond any drift tolerance."""
    scenario = next(s for s in SCENARIOS if s.name == SMOKE)
    store = golden_store(golden_dir)
    artifact = store.get(scenario.key)
    assert artifact is not None, "snapshot must exist before tampering"
    store.put(
        scenario.key,
        arrays={"values": artifact.arrays["values"] + 0.25},
        meta=dict(artifact.meta),
    )


@pytest.mark.slow
class TestSelfcheckCLI:
    """End-to-end exit-code contract of ``repro selfcheck``."""

    def test_drift_makes_selfcheck_fail_and_update_recovers(self, tmp_path, capsys):
        golden = tmp_path / "goldens"
        # Record a fresh snapshot through the CLI itself.
        assert main(["selfcheck", "--smoke", "--update-golden", "--golden-dir", str(golden)]) == 0
        assert main(["selfcheck", "--smoke", "--golden-dir", str(golden)]) == 0
        # Injected drift must flip the exit code to non-zero...
        _inject_drift(golden)
        assert main(["selfcheck", "--smoke", "--golden-dir", str(golden)]) == 1
        assert "drift" in capsys.readouterr().out
        # ...and --update-golden refreshes the snapshot back to green.
        assert main(["selfcheck", "--smoke", "--update-golden", "--golden-dir", str(golden)]) == 0
        assert main(["selfcheck", "--smoke", "--golden-dir", str(golden)]) == 0
