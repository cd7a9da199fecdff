"""End-to-end robustness: lossy runs complete via retransmission, rail
outages trigger failover, same-seed fault counters reproduce, and
rendezvous handshakes degrade to eager chunking on timeout."""

import pytest

from repro.core.config import EngineConfig
from repro.madeleine.message import PackMode
from repro.network.faults import FaultConfig
from repro.network.virtual import TrafficClass
from repro.runtime import Cluster
from repro.util.units import KiB

FAULTS = FaultConfig.from_spec(
    {
        "drop": 0.05,
        "seed": 13,
        "outages": [{"nic": "n0.mx00", "at": 2e-5, "recover": 4e-4}],
        "reliability": {"max_retries": 16},
    }
)


def drive(cluster, n_messages=40, size=4 * KiB):
    """Deterministic hand-driven workload: n0 -> n1 bulk sends at t=0."""
    api = cluster.api("n0")
    flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
    messages = [api.send(flow, size) for _ in range(n_messages)]
    cluster.run_until_idle()
    return messages


class TestLossyRun:
    def test_completes_with_retransmits_and_failover(self):
        cluster = Cluster(networks=[("mx", 2)], seed=3, faults=FAULTS)
        messages = drive(cluster)
        assert all(m.completion.done for m in messages)
        report = cluster.report()
        assert report.messages == len(messages)
        assert report.packets_dropped > 0
        assert report.retransmits > 0
        assert report.failovers > 0

    def test_same_seed_reproduces_fault_counters(self):
        def counters():
            cluster = Cluster(networks=[("mx", 2)], seed=3, faults=FAULTS)
            drive(cluster)
            report = cluster.report()
            return (
                report.messages,
                report.packets_dropped,
                report.packets_duplicated,
                report.retransmits,
                report.failovers,
            )

        assert counters() == counters()

    def test_single_rail_outage_recovers_without_failover_target(self):
        """With one rail, traffic stalls through the outage and resumes
        after recovery — no surviving NIC to fail over to."""
        faults = FaultConfig.from_spec(
            {
                "seed": 5,
                "outages": [{"nic": "n0.mx00", "at": 2e-5, "recover": 3e-4}],
                "reliability": {"max_retries": 16, "rto": 1e-4},
            }
        )
        cluster = Cluster(networks=[("mx", 1)], seed=3, faults=faults)
        messages = drive(cluster, n_messages=10)
        assert all(m.completion.done for m in messages)

    def test_duplicate_storm_delivers_each_message_once(self):
        cluster = Cluster(
            networks=[("mx", 1)],
            seed=7,
            faults=FaultConfig.from_spec({"duplicate": 0.5, "seed": 7}),
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.CONTROL)
        messages = []
        for i in range(40):  # spaced so aggregation cannot merge them all
            cluster.sim.at(i * 2e-6, lambda: messages.append(api.send(flow, 256)))
        cluster.run_until_idle()
        assert all(m.completion.done for m in messages)
        report = cluster.report()
        assert report.messages == 40
        assert report.packets_duplicated > 0
        assert cluster.transport.stats.dups_discarded > 0


class TestLosslessUnchanged:
    def test_no_faults_block_means_no_transport(self):
        cluster = Cluster(seed=3)
        assert cluster.fault_plane is None and cluster.transport is None
        drive(cluster, n_messages=5)
        report = cluster.report()
        assert report.retransmits == 0
        assert report.packets_dropped == 0
        assert report.failovers == 0
        assert report.rdv_timeouts == 0

    def test_report_row_keys_stable(self):
        cluster = Cluster(seed=3)
        drive(cluster, n_messages=3)
        row = cluster.report().row()
        # Fault counters ride along in every row (zero on lossless runs)
        # so cross-scenario tables keep a fixed schema.
        assert row["retransmits"] == 0
        assert row["failovers"] == 0
        assert row["dropped"] == 0


class TestRendezvousTimeout:
    # A SAFER fragment travels alone; once its handshake timed out it is
    # chunked to the aggregation budget like any other eager entry.
    @pytest.mark.parametrize("size", [64 * KiB, 256 * KiB])
    @pytest.mark.parametrize("mode", list(PackMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("engine", ["optimizing", "legacy"])
    def test_times_out_and_falls_back_to_eager(self, engine, mode, size):
        cluster = Cluster(
            engine=engine,
            seed=3,
            config=EngineConfig(rdv_timeout=1e-9),
        )
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        message = api.send(flow, size, mode=mode)
        cluster.run_until_idle()
        assert message.completion.done
        assert cluster.engine("n0").stats.rdv_timeouts >= 1
        assert cluster.report().rdv_timeouts >= 1

    def test_generous_timeout_never_fires(self):
        cluster = Cluster(seed=3, config=EngineConfig(rdv_timeout=1.0))
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        message = api.send(flow, 256 * KiB)
        cluster.run_until_idle()
        assert message.completion.done
        assert cluster.engine("n0").stats.rdv_timeouts == 0
        assert cluster.engine("n0").stats.rdv_parked >= 1
