"""Tests for sparkline and LaTeX rendering."""

from __future__ import annotations

import pytest

from repro.evaluation import render_latex_table, render_sparkline


class TestSparkline:
    def test_monotone_descent(self):
        line = render_sparkline([5.0, 4.0, 3.0, 2.0, 1.0])
        assert line[0] == "█"
        assert line[-1] == "▁"
        assert len(line) == 5

    def test_resampled_to_width(self):
        line = render_sparkline(list(range(200)), width=40)
        assert len(line) == 40

    def test_constant_series(self):
        line = render_sparkline([2.0, 2.0, 2.0])
        assert line == "▁▁▁"

    def test_nan_renders_as_space(self):
        line = render_sparkline([1.0, float("nan"), 2.0])
        assert line[1] == " "

    def test_all_nan(self):
        assert render_sparkline([float("nan")] * 3).strip() == ""

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            render_sparkline([])


class TestLatexTable:
    def test_structure(self):
        text = render_latex_table(["a", "b"], [["1", "2"]])
        for token in ("\\begin{tabular}{ll}", "\\toprule", "\\midrule", "\\bottomrule"):
            assert token in text
        assert "a & b \\\\" in text
        assert "1 & 2 \\\\" in text

    def test_caption_and_label(self):
        text = render_latex_table(["x"], [["1"]], caption="My caption", label="tab:x")
        assert "\\caption{My caption}" in text
        assert "\\label{tab:x}" in text

    def test_escaping(self):
        text = render_latex_table(["m_1"], [["50% & more"]])
        assert "m\\_1" in text
        assert "50\\% \\& more" in text

    def test_plus_minus_converted(self):
        text = render_latex_table(["acc"], [["0.593±0.032"]])
        assert "$\\pm$" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            render_latex_table(["a", "b"], [["only one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            render_latex_table([], [])
