"""Every experiment must run in quick mode and keep its declared shape.

(The full-axis runs are ``python -m repro.bench``; this keeps the
experiment code itself under ordinary test coverage.)
"""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS


def _row(result, column, value):
    return next(row for row in result.rows if row[column] == value)


#: Thresholds held on top of the experiments' own shape assertions
#: (they hold on the quick axes as on the full ones).
EXTRA_SHAPES = {
    "E2": lambda r: max(r.column("gain")) > 2.0,
    # Bandwidth approaches the MX link rate for large messages.
    "E3": lambda r: r.column("opt_BW_MBps")[-1] > 200,
    "E4": lambda r: r.column("MBps")[-1] > r.column("MBps")[0],
    "E5": lambda r: min(r.column("MBps")) > 0.9 * max(r.column("MBps")),
    "E6": lambda r: _row(r, "config", "4 x mx pooled")["speedup"] > 3.0,
    "E7": lambda r: _row(r, "policy", "classes (pooled)")["ctl_p99_us"]
    < _row(r, "policy", "single channel")["ctl_p99_us"] / 5,
}


@pytest.mark.parametrize("experiment_id", list(ALL_EXPERIMENTS))
def test_quick_mode_runs(experiment_id):
    result = ALL_EXPERIMENTS[experiment_id](quick=True)
    extra_shape = EXTRA_SHAPES.get(experiment_id)
    assert extra_shape is None or extra_shape(result)
    assert result.experiment_id == experiment_id
    assert result.rows, "every experiment must produce rows"
    assert set(result.rows[0]) == set(result.columns)
    rendered = result.render()
    assert experiment_id in rendered


def test_registry_complete():
    assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 12)]
