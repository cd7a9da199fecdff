"""Liveness units: backoff jitter, heartbeat ledgers, the watchdog."""

import pytest

from repro.live.cluster import survivor_agreement
from repro.live.liveness import Backoff, HeartbeatLedger, PeerWatchdog
from repro.util.errors import ConfigurationError


class TestBackoff:
    def test_grows_exponentially_and_clamps(self):
        backoff = Backoff(base=0.05, factor=2.0, maximum=0.4, jitter=0.0, seed=1)
        delays = [backoff.next() for _ in range(6)]
        assert delays[:4] == pytest.approx([0.05, 0.1, 0.2, 0.4])
        assert delays[4] == pytest.approx(0.4)  # clamped

    def test_reset_rearms(self):
        backoff = Backoff(base=0.05, jitter=0.0)
        backoff.next(), backoff.next()
        backoff.reset()
        assert backoff.next() == pytest.approx(0.05)

    def test_jitter_is_seeded_and_bounded(self):
        a = Backoff(jitter=0.25, seed=7)
        b = Backoff(jitter=0.25, seed=7)
        seq_a = [a.next() for _ in range(10)]
        seq_b = [b.next() for _ in range(10)]
        assert seq_a == seq_b  # same seed, same delays
        plain = Backoff(jitter=0.0)
        for got, nominal in zip(seq_a, [plain.next() for _ in range(10)]):
            assert nominal * 0.75 <= got <= nominal * 1.25

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Backoff(base=0.0)
        with pytest.raises(ConfigurationError):
            Backoff(factor=0.5)
        with pytest.raises(ConfigurationError):
            Backoff(jitter=1.5)


class TestHeartbeatLedger:
    def test_any_traffic_counts_as_life(self):
        ledger = HeartbeatLedger(dead_after=1.0)
        ledger.record("n1", 10.0)
        assert ledger.age("n1", 10.4) == pytest.approx(0.4)
        assert not ledger.stale("n1", 10.9)
        assert ledger.stale("n1", 11.1)

    def test_never_heard_is_not_stale(self):
        ledger = HeartbeatLedger(dead_after=1.0)
        assert ledger.age("n9", 100.0) is None
        assert not ledger.stale("n9", 100.0)

    def test_ages_snapshot(self):
        ledger = HeartbeatLedger(dead_after=1.0)
        ledger.record("n1", 5.0)
        ledger.record("n2", 6.0)
        assert ledger.ages(7.0) == pytest.approx({"n1": 2.0, "n2": 1.0})


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestPeerWatchdog:
    def _watchdog(self, clock, **kwargs):
        kwargs.setdefault("dead_after", 2.0)
        return PeerWatchdog({0: "n0", 1: "n1", 2: "n2"}, clock=clock, **kwargs)

    def test_exit_declared_once(self):
        clock = _FakeClock()
        watchdog = self._watchdog(clock)
        watchdog.note_exit(2, -9)
        (dead,) = watchdog.check()
        assert (dead.rank, dead.node, dead.reason) == (2, "n2", "exit")
        assert watchdog.check() == []  # declared exactly once
        assert watchdog.alive() == [0, 1]

    def test_control_failures_need_budget(self):
        clock = _FakeClock()
        watchdog = self._watchdog(clock, control_failure_budget=2)
        watchdog.note_control_failure(1)
        assert watchdog.check() == []
        watchdog.note_control_failure(1)
        (dead,) = watchdog.check()
        assert dead.reason == "control"

    def test_beat_clears_control_failures(self):
        clock = _FakeClock()
        watchdog = self._watchdog(clock, control_failure_budget=2)
        watchdog.note_control_failure(1)
        watchdog.beat(1)
        watchdog.note_control_failure(1)
        assert watchdog.check() == []

    def test_heartbeat_gossip_needs_direct_contact_loss_too(self):
        clock = _FakeClock()
        watchdog = self._watchdog(clock)
        # Survivors gossip a long silence, but the coordinator still
        # reaches the peer (beat): a one-sided socket failure must not
        # kill a healthy process.
        watchdog.note_heartbeat_age(1, 5.0)
        watchdog.beat(1)
        assert watchdog.check() == []
        # Now the coordinator also loses contact for > dead_after.
        clock.now += 3.0
        watchdog.note_heartbeat_age(1, 8.0)
        (dead,) = watchdog.check()
        assert dead.reason == "heartbeat"
        assert dead.time_to_detect == pytest.approx(3.0)

    def test_summary_shape(self):
        clock = _FakeClock()
        watchdog = self._watchdog(clock)
        watchdog.note_exit(0, 1)
        watchdog.check()
        summary = watchdog.summary()
        assert summary["alive"] == [1, 2]
        assert summary["dead"][0]["node"] == "n0"
        assert summary["dead"][0]["reason"] == "exit"

    def test_bad_dead_after_rejected(self):
        with pytest.raises(ConfigurationError):
            PeerWatchdog({0: "n0"}, dead_after=0.0)


def _status(submitted=0, done_sent=0, done_received=0, **more):
    return {
        "quiet": True,
        "submitted": submitted,
        "done_sent": done_sent,
        "done_received": done_received,
        **more,
    }


class TestSurvivorAgreement:
    """The coordinator's counter agreement, without any process."""

    def test_no_deaths_is_the_three_way_check(self):
        balanced = {
            0: _status(submitted=5, done_sent=3, done_received=5),
            1: _status(submitted=3, done_sent=5, done_received=3),
        }
        snapshot, agree = survivor_agreement(balanced, [])
        assert agree
        assert snapshot == (8, 8, 8, 8, ())
        # One message still in flight: submitted, not yet acknowledged.
        balanced[0]["submitted"] = 6
        assert not survivor_agreement(balanced, [])[1]
        # A DONE on the wire: sent by n1, not yet received by n0.
        balanced[0]["submitted"] = 5
        balanced[1]["done_sent"] = 6
        assert not survivor_agreement(balanced, [])[1]

    def test_done_sent_to_a_dead_peer_is_netted_out(self):
        # n0 acknowledged 2 messages to n2 before n2 died: nobody alive
        # will ever count them as received.
        statuses = {
            0: _status(submitted=4, done_sent=6, done_received=4,
                       done_by_dst={"n1": 4, "n2": 2}),
            1: _status(submitted=4, done_sent=4, done_received=4,
                       done_by_dst={"n0": 4}),
        }
        assert not survivor_agreement(statuses, [])[1]
        snapshot, agree = survivor_agreement(statuses, ["n2"])
        assert agree
        assert snapshot == (8, 8, 8, 8, ("n2",))

    def test_done_received_from_a_dead_peer_is_netted_out(self):
        # n2 acknowledged 3 of n0's messages, then died.
        statuses = {
            0: _status(submitted=7, done_sent=4, done_received=7,
                       done_rx_by_src={"n1": 4, "n2": 3}),
            1: _status(submitted=4, done_sent=4, done_received=4),
        }
        snapshot, agree = survivor_agreement(statuses, ["n2"])
        assert agree
        assert snapshot == (11, 11, 8, 8, ("n2",))

    def test_abandoned_messages_need_no_done(self):
        statuses = {
            0: _status(submitted=9, done_sent=0, done_received=6, abandoned=3),
            1: _status(submitted=0, done_sent=6, done_received=0),
        }
        snapshot, agree = survivor_agreement(statuses, ["n2"])
        assert agree
        assert snapshot[0] == 6

    def test_a_silent_survivor_is_never_agreement(self):
        # Both equations balance over the one rank that answered, but
        # rank 1 is alive and said nothing this poll.
        statuses = {0: _status(submitted=2, done_sent=2, done_received=2), 1: None}
        assert not survivor_agreement(statuses, [])[1]
        assert survivor_agreement({0: statuses[0]}, [])[1]
