"""Simulated high-speed network substrate.

This package models the *transfer layer* of Figure 1 of the paper:

* :mod:`~repro.network.model` — per-technology transfer cost models
  (PIO/DMA α+β terms, copy costs, gather/scatter overheads);
* :mod:`~repro.network.technologies` — calibrated presets for
  Myrinet/MX, Quadrics/Elan (QsNet) and GigE/TCP;
* :mod:`~repro.network.wire` — wire packets and segments;
* :mod:`~repro.network.nic` — the NIC busy/idle state machine whose
  *idle transition* triggers the optimizer (paper §3);
* :mod:`~repro.network.virtual` — NIC virtualization: channels /
  multiplexing units and traffic classes (paper §2);
* :mod:`~repro.network.fabric` — nodes, networks, and all-to-all
  connectivity;
* :mod:`~repro.network.receiver` — receiver-side demultiplexing and
  control-packet dispatch;
* :mod:`~repro.network.faults` — seeded fault injection (drop, corrupt,
  duplicate, jitter, rail outages);
* :mod:`~repro.network.reliable` — ACK/retransmit reliability protocol
  with dedup, reordering repair, and multirail failover.
"""

from repro.network.fabric import Fabric, Network, Node
from repro.network.faults import FaultPlane, FaultSpec, FaultVerdict, RailOutage
from repro.network.model import LinkModel, TransferMode
from repro.network.nic import NIC, NicStats
from repro.network.receiver import Receiver
from repro.network.reliable import ReliabilityConfig, ReliableTransport, TransportStats
from repro.network.technologies import (
    TECHNOLOGIES,
    gige_tcp,
    myrinet_mx,
    quadrics_elan,
)
from repro.network.virtual import Channel, ChannelPool, TrafficClass
from repro.network.wire import PacketKind, WirePacket, WireSegment

__all__ = [
    "Channel",
    "ChannelPool",
    "Fabric",
    "FaultPlane",
    "FaultSpec",
    "FaultVerdict",
    "LinkModel",
    "NIC",
    "Network",
    "NicStats",
    "Node",
    "PacketKind",
    "RailOutage",
    "Receiver",
    "ReliabilityConfig",
    "ReliableTransport",
    "TECHNOLOGIES",
    "TransportStats",
    "TrafficClass",
    "TransferMode",
    "WirePacket",
    "WireSegment",
    "gige_tcp",
    "myrinet_mx",
    "quadrics_elan",
]
