"""The tuner's core contracts: install, escape hatch, wrapper identity.

* ``tuner: off`` (and no tuner block at all) dispatches **byte
  identically** to a tuner-less build on the E2/E5-style workloads —
  the escape hatch the whole subsystem is gated behind;
* a wrapper-only tuner (``tuner: {}`` — the per-decision hook with no
  sweep and no rails behind it) changes nothing either, so whole-run
  dispatch logs still match exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies.search import BoundedSearchStrategy
from repro.middleware import uniform_small_flows
from repro.middleware.mpi_like import StreamApp
from repro.runtime import Cluster, run_session
from repro.tuner import ClusterTuner, TunedStrategy, Tuner
from repro.util.errors import ConfigurationError
from repro.util.units import us

from tests.core.test_kernel_equivalence import _record_dispatches


def run_e2(tuner=None):
    """Scaled-down E2 burst; returns (cluster, ordered dispatch log)."""
    cluster = Cluster(seed=102, tuner=tuner)
    log = _record_dispatches(cluster)
    apps = uniform_small_flows(4, size=256, count=40, interval=1 * us)
    run_session(cluster, [a.install for a in apps])
    return cluster, log


def run_e5(budget, tuner=None):
    """Scaled-down E5 mixed streams over bounded search."""
    cluster = Cluster(
        n_nodes=3,
        seed=5,
        strategy=lambda: BoundedSearchStrategy(budget=budget),
        tuner=tuner,
    )
    log = _record_dispatches(cluster)
    apps = [
        StreamApp(
            "n0",
            "n1" if i % 2 == 0 else "n2",
            size=256 * (1 + i),
            count=30,
            interval=2 * us,
            size_sigma=0.8,
            name=f"s{i}",
        )
        for i in range(4)
    ]
    run_session(cluster, [a.install for a in apps])
    return cluster, log


class TestInstall:
    def test_install_wraps_strategy(self):
        cluster = Cluster(seed=0)
        engine = cluster.engine("n0")
        inner = engine.strategy
        tuner = Tuner(engine)
        tuner.install()
        assert isinstance(engine.strategy, TunedStrategy)
        assert engine.strategy.inner is inner

    def test_double_install_rejected(self):
        engine = Cluster(seed=0).engine("n0")
        tuner = Tuner(engine)
        tuner.install()
        with pytest.raises(ConfigurationError, match="already installed"):
            tuner.install()

    def test_cluster_tuner_double_install_rejected(self):
        cluster = Cluster(seed=0)
        tuner = ClusterTuner()
        tuner.install(cluster)
        with pytest.raises(ConfigurationError, match="already installed"):
            tuner.install(cluster)


class TestEscapeHatch:
    """``tuner: off`` must be the absence of the subsystem, not a branch."""

    def test_disabled_block_leaves_engine_untouched(self):
        cluster, _ = run_e2(tuner={"enabled": False})
        for name in cluster.node_names:
            engine = cluster.engine(name)
            assert not isinstance(engine.strategy, TunedStrategy)
            assert engine.rail_selector is None
        assert cluster.tuner is None

    def test_e2_dispatch_byte_identical(self):
        _, baseline = run_e2()
        assert baseline, "workload produced no dispatches"
        _, disabled = run_e2(tuner={"enabled": False})
        assert baseline == disabled

    def test_e5_dispatch_byte_identical(self):
        _, baseline = run_e5(budget=8)
        assert baseline, "workload produced no dispatches"
        _, disabled = run_e5(budget=8, tuner={"enabled": False})
        assert baseline == disabled


class TestWrapperOnlyEquivalence:
    """Tuner ON with nothing behind the hook: same bytes."""

    def test_e2_identical(self):
        _, baseline = run_e2()
        cluster, tuned = run_e2(tuner={})
        assert tuned == baseline
        assert cluster.tuner.summary()["totals"]["decisions"] > 0

    def test_e5_identical(self):
        _, baseline = run_e5(budget=8)
        cluster, tuned = run_e5(budget=8, tuner={})
        assert tuned == baseline
        assert cluster.tuner.summary()["totals"]["decisions"] > 0

    @settings(max_examples=8, deadline=None)
    @given(
        n_flows=st.integers(min_value=1, max_value=3),
        size=st.integers(min_value=64, max_value=2048),
        count=st.integers(min_value=5, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_wrapper_is_byte_identical(self, n_flows, size, count, seed):
        """Across randomized workloads, a tuned run's dispatch log
        equals the untuned one bit for bit."""

        def run(tuner):
            cluster = Cluster(seed=seed, tuner=tuner)
            log = _record_dispatches(cluster)
            apps = uniform_small_flows(
                n_flows, size=size, count=count, interval=1 * us
            )
            run_session(cluster, [a.install for a in apps])
            return log

        assert run(None) == run({})


class TestSummary:
    def test_summary_shape(self):
        engine = Cluster(seed=0).engine("n0")
        tuner = Tuner(engine)
        tuner.install()
        engine.strategy.make_plan(engine, engine.drivers[0])
        summary = tuner.summary()
        assert summary["decisions"] == 1
        assert "sweep" not in summary and "rails" not in summary
