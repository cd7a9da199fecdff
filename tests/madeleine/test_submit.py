"""Tests for submit entries: lifecycle, constraints flags, consumption."""

import pytest

from repro.madeleine.message import Flow, Message, PackMode
from repro.madeleine.submit import (
    CONTROL_ENTRY_SIZE,
    EntryKind,
    EntryState,
    SubmitEntry,
)
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError


def data_entry(size=1024, mode=PackMode.CHEAPER, traffic_class=TrafficClass.DEFAULT):
    flow = Flow(0, "f", "a", "b", traffic_class)
    message = Message(flow, seq=0)
    fragment = message.add_fragment(size, mode=mode)
    return SubmitEntry(EntryKind.DATA, "b", 0.0, fragment=fragment, flow=flow)


class TestConstruction:
    def test_data_entry_fields(self):
        e = data_entry(512)
        assert e.kind is EntryKind.DATA
        assert e.state is EntryState.WAITING
        assert e.remaining == 512
        assert e.traffic_class is TrafficClass.DEFAULT
        assert not e.is_control

    def test_data_requires_fragment_and_flow(self):
        with pytest.raises(ConfigurationError):
            SubmitEntry(EntryKind.DATA, "b", 0.0)

    def test_control_entry(self):
        e = SubmitEntry(EntryKind.RDV_REQ, "b", 0.0, meta={"token": 1})
        assert e.is_control
        assert e.remaining == CONTROL_ENTRY_SIZE
        assert e.traffic_class is TrafficClass.CONTROL
        assert e.flow is None

    def test_control_with_fragment_rejected(self):
        flow = Flow(0, "f", "a", "b")
        frag = Message(flow, seq=0).add_fragment(8)
        with pytest.raises(ConfigurationError):
            SubmitEntry(EntryKind.RDV_ACK, "b", 0.0, fragment=frag)

    def test_traffic_class_from_flow(self):
        e = data_entry(traffic_class=TrafficClass.BULK)
        assert e.traffic_class is TrafficClass.BULK


class TestAggregatability:
    def test_cheaper_aggregatable(self):
        assert data_entry(mode=PackMode.CHEAPER).aggregatable

    def test_safer_not_aggregatable(self):
        assert not data_entry(mode=PackMode.SAFER).aggregatable

    def test_later_deferrable(self):
        assert data_entry(mode=PackMode.LATER).deferrable
        assert not data_entry(mode=PackMode.CHEAPER).deferrable

    def test_control_not_aggregatable(self):
        e = SubmitEntry(EntryKind.RDV_REQ, "b", 0.0)
        assert not e.aggregatable

    def test_rdv_ready_not_aggregatable(self):
        e = data_entry()
        e.state = EntryState.RDV_READY
        assert not e.aggregatable


class TestConsume:
    def test_partial_consume(self):
        e = data_entry(1000)
        assert e.consume(400) == 0
        assert e.remaining == 600
        assert e.state is EntryState.WAITING
        assert e.consume(600) == 400
        assert e.state is EntryState.SENT

    def test_overconsume_rejected(self):
        e = data_entry(100)
        with pytest.raises(ConfigurationError):
            e.consume(101)

    def test_zero_consume_rejected(self):
        with pytest.raises(ConfigurationError):
            data_entry().consume(0)

    def test_size_tracks_remaining(self):
        e = data_entry(100)
        e.consume(30)
        assert e.size == 70
