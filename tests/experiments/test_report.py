"""Tests for the paper-reference data and the report generator."""

from __future__ import annotations

import pytest

from repro.data import dataset_names
from repro.experiments import ExperimentRunner, FAST, build_report
from repro.experiments import paper_reference as paper


class TestPaperReference:
    def test_table1_covers_all_datasets(self):
        assert set(paper.TABLE1_STATUS) == set(dataset_names())

    def test_table1_counts_match_prose(self):
        """§4: 5 ViT datasets and 2 MOMENT datasets fit under full FT."""
        vit_ok = sum(status[0] == "OK" for status in paper.TABLE1_STATUS.values())
        moment_ok = sum(status[1] == "OK" for status in paper.TABLE1_STATUS.values())
        assert vit_ok == 5
        assert moment_ok == 2

    def test_table2_cells_reference_known_coordinates(self):
        for dataset, model, column in paper.TABLE2_CELLS:
            assert dataset in dataset_names()
            assert model in ("MOMENT", "ViT")
            assert column in ("head", "pca", "lcomb", "lcomb_top_k")

    def test_table45_complete_grids(self):
        for table in (paper.TABLE4_MOMENT, paper.TABLE5_VIT):
            assert set(table) == set(dataset_names())
            for cells in table.values():
                assert set(cells) == {"PCA", "Scaled PCA", "Patch_8", "Patch_16"}

    def test_accuracies_in_unit_interval(self):
        for value in paper.TABLE2_CELLS.values():
            if isinstance(value, paper.PaperCell):
                assert 0.0 <= value.mean <= 1.0
                assert value.std >= 0.0

    def test_cell_format(self):
        assert str(paper.PaperCell(0.593, 0.032)) == "0.593±0.032"

    def test_headline_claims_consistent_with_table1(self):
        claims = paper.HEADLINE_CLAIMS
        assert claims["MOMENT"]["lcomb_full_ft_ok"] / claims["MOMENT"]["full_ft_ok"] == pytest.approx(4.5)
        assert claims["ViT"]["lcomb_full_ft_ok"] / claims["ViT"]["full_ft_ok"] == pytest.approx(2.4)


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self):
        runner = ExperimentRunner(
            FAST.with_(
                seeds=(0,),
                datasets=("JapaneseVowels", "NATOPS"),
                data_scale=0.05,
                max_length=32,
                pretrain_steps=2,
                head_epochs=4,
                joint_epochs=2,
                full_epochs=2,
            )
        )
        return build_report(runner)

    def test_contains_all_sections(self, report):
        for heading in (
            "Headline claims",
            "Table 1",
            "Table 2",
            "Table 4",
            "Table 5",
            "Figure 1",
            "Figure 4",
            "Figure 5",
        ):
            assert heading in report

    def test_status_agreement_reported(self, report):
        assert "Status agreement: 4/4 cells." in report

    def test_paper_values_quoted(self, report):
        # Vowels MOMENT head cell from the paper
        assert "0.885±0.002" in report

    def test_is_markdown(self, report):
        assert report.startswith("# EXPERIMENTS")
        assert "| Model" in report
