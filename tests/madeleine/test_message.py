"""Tests for flows, fragments, and structured messages."""

import pytest

from repro.madeleine.message import Flow, Message, PackMode
from repro.network.virtual import TrafficClass
from repro.runtime.cluster import Cluster
from repro.util.errors import ConfigurationError


class TestFlow:
    def test_fields(self):
        f = Flow(0, "f", "a", "b", TrafficClass.BULK)
        assert (f.src, f.dst, f.traffic_class) == ("a", "b", TrafficClass.BULK)
        assert f.messages_sent == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Flow(0, "bad", "a", "a")

    def test_unique_ids(self):
        """The run counts its flows: unique within a cluster, and every
        cluster starts at 0 whatever the process did before."""

        def opened():
            api = Cluster().api("n0")
            return [api.open_flow("n1").flow_id for _ in range(3)]

        assert opened() == opened() == [0, 1, 2]


class TestMessage:
    @pytest.fixture
    def flow(self):
        return Flow(0, "f", "a", "b")

    def test_sequence_numbers_per_flow(self):
        api = Cluster().api("n0")
        flow = api.open_flow("n1")
        m1, m2 = api.send(flow, 8), api.send(flow, 8)
        assert (m1.seq, m2.seq) == (0, 1)
        assert flow.messages_sent == 2

    def test_id_derived_from_flow_and_seq(self, flow):
        """Sender and live receiver build the message separately and
        must name it alike: the id is a function of (flow id, seq)."""
        other = Flow(1, "g", "a", "b")
        assert Message(flow, seq=3).message_id == Message(flow, seq=3).message_id
        ids = {Message(f, seq=q).message_id for f in (flow, other) for q in range(3)}
        assert len(ids) == 6
        assert flow.messages_sent == 0  # numbering is the sender's job

    def test_add_fragments_in_order(self, flow):
        m = Message(flow, seq=0)
        h = m.add_fragment(16, express=True)
        d = m.add_fragment(1024, mode=PackMode.LATER)
        assert [f.index for f in m.fragments] == [0, 1]
        assert h.express and not d.express
        assert d.mode is PackMode.LATER
        assert m.total_size == 1040

    def test_zero_size_fragment_rejected(self, flow):
        with pytest.raises(ConfigurationError):
            Message(flow, seq=0).add_fragment(0)

    def test_flush_lifecycle(self, flow):
        m = Message(flow, seq=0)
        m.add_fragment(8)
        assert not m.flushed
        m.mark_flushed(1.0)
        assert m.flushed and m.submit_time == 1.0

    def test_double_flush_rejected(self, flow):
        m = Message(flow, seq=0)
        m.add_fragment(8)
        m.mark_flushed(1.0)
        with pytest.raises(ConfigurationError):
            m.mark_flushed(2.0)

    def test_empty_flush_rejected(self, flow):
        with pytest.raises(ConfigurationError):
            Message(flow, seq=0).mark_flushed(0.0)

    def test_pack_after_flush_rejected(self, flow):
        m = Message(flow, seq=0)
        m.add_fragment(8)
        m.mark_flushed(0.0)
        with pytest.raises(ConfigurationError):
            m.add_fragment(8)

    def test_completion_initially_unresolved(self, flow):
        m = Message(flow, seq=0)
        assert not m.completion.done
