"""Tests for the benchmark harness: tables, figures, CLI."""

import pytest

from repro.bench.harness import ExperimentResult, format_table


def sample_result():
    result = ExperimentResult("EX", "sample", ["x", "y"])
    result.add_row(x=1, y=10.0)
    result.add_row(x=2, y=20.5)
    result.note("a note")
    return result


class TestExperimentResult:
    def test_add_row_validates_columns(self):
        result = ExperimentResult("EX", "t", ["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(a=1)

    def test_column_view(self):
        assert sample_result().column("x") == [1, 2]

    def test_render_contains_everything(self):
        rendered = sample_result().render()
        assert "EX" in rendered and "sample" in rendered
        assert "20.50" in rendered
        assert "a note" in rendered


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["col"], [{"col": 5}, {"col": 123}])
        lines = table.splitlines()
        assert lines[0].endswith("col")
        assert lines[2].endswith("  5")
        assert lines[3].endswith("123")

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table

    def test_float_formats(self):
        table = format_table(["v"], [{"v": 0.001}, {"v": 12345.6}, {"v": 0.0}])
        assert "0.001" in table
        assert "1.23e+04" in table


class TestFigures:
    def test_render_series_basic(self):
        from repro.bench.figures import render_series

        chart = render_series(
            [1, 2, 4, 8], {"tput": [10, 20, 30, 40]}, x_label="flows", log_x=True
        )
        assert "o=tput" in chart
        assert "(log x)" in chart
        assert chart.count("o") >= 4

    def test_render_series_multi(self):
        from repro.bench.figures import render_series

        chart = render_series(
            [1, 2, 3],
            {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
        )
        assert "o=a" in chart and "x=b" in chart

    def test_length_mismatch_rejected(self):
        from repro.bench.figures import render_series
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            render_series([1, 2], {"a": [1.0]})

    def test_log_x_needs_positive(self):
        from repro.bench.figures import render_series
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            render_series([0, 1], {"a": [1.0, 2.0]}, log_x=True)

    def test_flat_series_ok(self):
        from repro.bench.figures import render_series

        chart = render_series([1, 2], {"a": [5.0, 5.0]})
        assert "o" in chart

    def test_result_figure(self):
        from repro.bench.figures import render_result_figure

        result = sample_result()
        result.figure = ("x", ["y"], False)
        chart = render_result_figure(result)
        assert chart is not None and "figure: EX" in chart

    def test_result_without_figure(self):
        from repro.bench.figures import render_result_figure

        assert render_result_figure(sample_result()) is None


class TestCli:
    def test_runs_selected_quick(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "three-layer" in out

    def test_unknown_id_errors(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["EZZZ"])

    def test_chart_flag(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E8", "--quick", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "figure: E8" in out

    def test_markdown_export(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        target = tmp_path / "results.md"
        assert main(["E8", "--quick", "--markdown", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Experiment results")
        assert "## E8" in text and "```" in text

    def test_repro_bench_alias_forwards_every_flag(self, capsys, tmp_path):
        """``python -m repro bench`` declares no flags of its own."""
        from repro.__main__ import main

        target = tmp_path / "alias.md"
        assert main(["bench", "E8", "--quick", "--markdown", str(target)]) == 0
        assert "## E8" in target.read_text()
