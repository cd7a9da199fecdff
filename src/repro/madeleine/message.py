"""Structured messages, fragments, and flows.

The paper's §3 observation drives this design: middleware requests are
not flat byte sequences but *structured messages* — one or more header
fragments describing the request plus one or more payload fragments.
The structure, and the packing mode attached to each fragment, are the
*constraints* the optimizer must respect while reordering.

Packing modes (the Madeleine API of reference [1]):

* ``CHEAPER`` — the library may handle the fragment however is cheapest
  (aggregate it, reorder it across flows, choose any protocol).
* ``SAFER`` — deterministic handling: the fragment travels in its own
  packet with no cross-flow aggregation (the receiver can rely on wire
  layout).
* ``LATER`` — the application may still modify the buffer until the
  message is flushed; the library may defer the fragment arbitrarily,
  letting later traffic overtake it.
"""

from __future__ import annotations

import enum

from repro.network.virtual import TrafficClass
from repro.sim.process import Future
from repro.util.errors import ConfigurationError

__all__ = ["PackMode", "Fragment", "Message", "Flow"]


class PackMode(enum.Enum):
    """Per-fragment packing constraint (see module docstring)."""

    CHEAPER = "cheaper"
    SAFER = "safer"
    LATER = "later"


class Flow:
    """One directed communication flow between two nodes.

    A flow is what a middleware opens once and then streams messages
    over; the optimizer's cross-flow aggregation mixes packets *across*
    flows while preserving FIFO *within* each flow (for eager traffic).

    ``flow_id`` is handed in by whoever opens the flow
    (:meth:`~repro.madeleine.api.MadAPI.open_flow` draws it from the
    run's ``sim.ids``), so the same scenario numbers its flows the same
    way on every run and on every live peer.
    """

    __slots__ = ("flow_id", "name", "src", "dst", "traffic_class", "messages_sent")

    def __init__(
        self,
        flow_id: int,
        name: str,
        src: str,
        dst: str,
        traffic_class: TrafficClass = TrafficClass.DEFAULT,
    ) -> None:
        if src == dst:
            raise ConfigurationError(f"flow {name!r} connects node {src!r} to itself")
        self.flow_id = flow_id
        self.name = name
        self.src = src
        self.dst = dst
        self.traffic_class = traffic_class
        self.messages_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow(#{self.flow_id} {self.name!r} {self.src}->{self.dst})"


class Fragment:
    """One contiguous piece of a message.

    ``express`` marks Madeleine *express* data: header-style fragments
    the receiver must be able to interpret ahead of the message body
    (they are what ``mad_unpack(..., receive_EXPRESS)`` reads to learn
    what the message is).  ``index`` is the fragment's position in its
    message; within a message, fragments are packed — and must be
    deliverable — in index order.  ``(message.message_id, index)`` is
    the fragment's identity wherever one has to be written down.
    """

    __slots__ = ("message", "index", "size", "mode", "express")

    def __init__(
        self,
        message: "Message",
        index: int,
        size: int,
        mode: PackMode = PackMode.CHEAPER,
        express: bool = False,
    ) -> None:
        if size <= 0:
            raise ConfigurationError(f"fragment size must be > 0, got {size}")
        self.message = message
        self.index = index
        self.size = size
        self.mode = mode
        self.express = express

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "hdr" if self.express else "data"
        return (
            f"Fragment(msg={self.message.message_id} "
            f"[{self.index}] {self.size}B {self.mode.value} {tag})"
        )


class Message:
    """A structured message: an ordered list of fragments on one flow.

    ``completion`` resolves (with the delivery time) once every fragment
    has fully arrived at the destination.  ``submit_time`` is stamped
    when the message is flushed into an engine.  ``context`` carries
    application metadata (an MPI tag, an RPC method id, …) — it rides
    the message the way header contents would in a real system, and the
    library never interprets it.

    ``seq`` is the message's position on its flow, assigned by the
    sender (:class:`~repro.madeleine.api.PackingSession`) and carried
    to a live receiver in the wire descriptor; ``message_id`` is
    computed from ``(flow.flow_id, seq)``, so the sender, the receiver
    and every trace name the same message by the same integer.
    """

    __slots__ = (
        "message_id",
        "flow",
        "fragments",
        "total_size",
        "submit_time",
        "completion",
        "seq",
        "context",
    )

    def __init__(self, flow: Flow, context: dict | None = None, *, seq: int) -> None:
        self.message_id: int = flow.flow_id << 32 | seq
        self.flow = flow
        self.fragments: list[Fragment] = []
        #: Sum of fragment sizes in bytes, kept by :meth:`add_fragment`.
        self.total_size = 0
        self.submit_time: float | None = None
        self.completion: Future = Future()
        self.seq = seq
        self.context: dict = context if context is not None else {}

    def add_fragment(
        self,
        size: int,
        mode: PackMode = PackMode.CHEAPER,
        express: bool = False,
    ) -> Fragment:
        """Append one fragment (packing order defines wire order)."""
        if self.submit_time is not None:
            raise ConfigurationError(
                f"message {self.message_id} already flushed; cannot pack more"
            )
        fragment = Fragment(self, len(self.fragments), size, mode, express)
        self.fragments.append(fragment)
        self.total_size += size
        return fragment

    @property
    def flushed(self) -> bool:
        """Whether the message was handed to an engine."""
        return self.submit_time is not None

    def mark_flushed(self, now: float) -> None:
        """Stamp the submit time (engines call this exactly once)."""
        if self.submit_time is not None:
            raise ConfigurationError(f"message {self.message_id} flushed twice")
        if not self.fragments:
            raise ConfigurationError(
                f"message {self.message_id} flushed with no fragments"
            )
        self.submit_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.message_id} flow={self.flow.name!r} "
            f"{len(self.fragments)} frags, {self.total_size}B)"
        )
