"""Tests for the online parameter-sweep controller."""

from repro.core.config import EngineConfig
from repro.tuner import SweepConfig, SweepController


class _Stats:
    def __init__(self):
        self.payload_bytes = 0
        self.dispatches = 0


class _Engine:
    """Just enough engine for the controller: a config and counters."""

    def __init__(self):
        self.config = EngineConfig()
        self.stats = _Stats()

    def credit(self, payload, dispatches):
        self.stats.payload_bytes += payload
        self.stats.dispatches += dispatches


def drive_trial(engine, controller, payload, dispatches):
    """Run one full trial window, crediting counters along the way.

    Credits land before each step, mirroring the real call order: the
    tuner observes the counters of decisions already dispatched, so the
    step that closes a trial sees only that trial's own credits.
    """
    changed = False
    for _ in range(controller.config.trial_decisions):
        engine.credit(payload, dispatches)
        changed |= controller.step()
    return changed


class TestEpsilonGreedy:
    def make(self, **kwargs):
        engine = _Engine()
        config = SweepConfig(
            mode="epsilon", epsilon=0.0, trial_decisions=4, **kwargs
        )
        return engine, SweepController(engine, config)

    def test_first_step_applies_first_arm(self):
        engine, controller = self.make(windows=(8, 16), budgets=(32,))
        assert controller.step() is True
        assert controller.current == (8, 32)
        assert engine.config.lookahead_window == 8
        assert engine.config.search_budget == 32

    def test_untried_arms_explored_in_grid_order(self):
        engine, controller = self.make(windows=(8, 16), budgets=(32, 64))
        controller.step()
        seen = [controller.current]
        for _ in range(3):
            drive_trial(engine, controller, payload=256, dispatches=1)
            seen.append(controller.current)
        assert seen == [(8, 32), (8, 64), (16, 32), (16, 64)]

    def test_exploits_best_arm(self):
        """With epsilon 0, the controller settles on the best-rewarded arm."""
        engine, controller = self.make(windows=(8, 16), budgets=(32,))
        controller.step()
        # Arm (8, 32) earns 256 B/dispatch, arm (16, 32) earns 1024.
        drive_trial(engine, controller, payload=256, dispatches=1)
        assert controller.current == (16, 32)
        drive_trial(engine, controller, payload=1024, dispatches=1)
        assert controller.current == (16, 32)
        assert controller.best_arm() == (16, 32)

    def test_rewards_are_bytes_per_dispatch(self):
        engine, controller = self.make(windows=(8,), budgets=(32,))
        controller.step()
        drive_trial(engine, controller, payload=512, dispatches=2)
        assert controller.rewards[(8, 32)] == [256.0]

    def test_summary_shape(self):
        engine, controller = self.make(windows=(8, 16), budgets=(32,))
        controller.step()
        drive_trial(engine, controller, payload=256, dispatches=1)
        summary = controller.summary()
        assert summary["mode"] == "epsilon"
        assert summary["arms"] == 2
        assert summary["trials"] == 1
        assert summary["rewards"] == {"w8/b32": 256.0}


class TestSuccessiveHalving:
    def test_converges_to_best_arm(self):
        engine = _Engine()
        config = SweepConfig(
            mode="halving", trial_decisions=2, windows=(8, 16), budgets=(32, 64)
        )
        controller = SweepController(engine, config)
        payoff = {(8, 32): 100, (8, 64): 200, (16, 32): 400, (16, 64): 300}
        controller.step()
        for _ in range(24):
            drive_trial(engine, controller, payload=payoff[controller.current], dispatches=1)
            if controller.converged is not None:
                break
        assert controller.converged == (16, 32)
        # once converged, the arm never changes again
        assert drive_trial(engine, controller, payload=1, dispatches=1) is False
        assert controller.current == (16, 32)


class TestPrivateConfigCopy:
    def test_tuner_install_does_not_mutate_shared_config(self):
        """Sweeping must not move the knobs of other engines sharing the
        config object the cluster was built with."""
        from repro.runtime import Cluster

        shared = EngineConfig(lookahead_window=16, search_budget=32)
        cluster = Cluster(
            n_nodes=2,
            strategy="search",
            config=shared,
            seed=0,
            tuner={
                "sweep": {"windows": [4], "budgets": [8], "trial_decisions": 2},
            },
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1")
        for _ in range(30):
            api.send(flow, 256)
        cluster.run_until_idle()
        assert shared.lookahead_window == 16 and shared.search_budget == 32
        engine = cluster.engine("n0")
        assert engine.config is not shared
        assert engine.config.lookahead_window == 4
