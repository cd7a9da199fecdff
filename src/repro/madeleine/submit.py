"""Submit entries: the unit of work in the engines' waiting lists.

When a message is flushed, each fragment becomes one :class:`SubmitEntry`
in the sender's engine (paper Figure 1: "Waiting packs").  Control
traffic generated *by* the engine itself — rendezvous requests and
acknowledgements — also travels as submit entries, so protocol messages
compete for (and benefit from) the same scheduling as data: that is what
makes the traffic-class experiment (E7) meaningful.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.madeleine.message import Flow, Fragment, Message
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError

__all__ = [
    "EntryKind",
    "EntryState",
    "PENDING_ENTRY_STATES",
    "SubmitEntry",
    "CONTROL_ENTRY_SIZE",
]

#: Nominal payload size of engine-generated control entries (rendezvous
#: handshake records): a token plus a length, in bytes.
CONTROL_ENTRY_SIZE = 16


class EntryKind(enum.Enum):
    """What a waiting-list entry carries."""

    DATA = "data"  #: a message fragment (or a slice of one)
    RDV_REQ = "rdv_req"  #: rendezvous request, engine-generated
    RDV_ACK = "rdv_ack"  #: rendezvous acknowledgement, engine-generated


class EntryState(enum.Enum):
    """Lifecycle of a submit entry inside an engine."""

    WAITING = "waiting"  #: eligible for scheduling
    RDV_PENDING = "rdv_pending"  #: parked: REQ sent, awaiting ACK
    RDV_READY = "rdv_ready"  #: ACK received: bulk data dispatchable
    SENT = "sent"  #: fully handed to a NIC


#: States in which an entry is visible to (and schedulable by) the
#: waiting lists.  The queues' incremental accounting keys off this set.
PENDING_ENTRY_STATES = frozenset((EntryState.WAITING, EntryState.RDV_READY))
# Hot paths compare by identity: probing the set hashes the member
# through Python-level ``Enum.__hash__``.
_WAITING = EntryState.WAITING
_RDV_READY = EntryState.RDV_READY
_DATA = EntryKind.DATA


class SubmitEntry:
    """One schedulable unit.

    For ``DATA`` entries, ``fragment`` is set and ``offset``/``remaining``
    track partial dispatch (multirail striping sends slices).  Control
    entries carry protocol fields in ``meta`` (``token``, ``size``)
    instead of a fragment.

    An entry knows the :class:`~repro.core.waiting.ChannelQueue` holding
    it (``_owner``, maintained by the queue itself): state transitions
    and byte consumption notify the owner so the queue's pending
    count/bytes counters stay exact without ever re-walking the queue.
    A whole dispatch skips both: ``ChannelQueue.retire`` sets
    ``offset``, ``remaining`` and the state itself.
    """

    __slots__ = (
        "kind",
        "_state",
        "_owner",
        "flow",
        "flow_id",
        "dst",
        "traffic_class",
        "fragment",
        "message",
        "submit_time",
        "offset",
        "remaining",
        "meta",
    )

    def __init__(
        self,
        kind: EntryKind,
        dst: str,
        submit_time: float,
        fragment: Fragment | None = None,
        flow: Flow | None = None,
        *,
        traffic_class: TrafficClass | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        # Built twice per message on the submit path: the DATA branch
        # sets its fields straight from the fragment and the flow.
        if kind is _DATA:
            if fragment is None or flow is None:
                raise ConfigurationError("DATA entries need a fragment and a flow")
            self.message: Message | None = fragment.message
            self.remaining = fragment.size
        else:
            if fragment is not None:
                raise ConfigurationError(f"{kind.value} entries must not carry a fragment")
            self.message = None
            self.remaining = CONTROL_ENTRY_SIZE
        self.kind = kind
        self._state = _WAITING
        self._owner = None  # ChannelQueue holding this entry, if any
        self.flow = flow
        #: Flat copy of ``flow.flow_id`` (``-1`` for engine control
        #: entries) — the decision kernel's array mirror reads this
        #: without chasing the flow object.
        self.flow_id: int = flow.flow_id if flow is not None else -1
        self.dst = dst
        if traffic_class is not None:
            self.traffic_class = traffic_class
        elif flow is not None:
            self.traffic_class = flow.traffic_class
        else:
            self.traffic_class = TrafficClass.CONTROL
        self.fragment = fragment
        self.submit_time = submit_time
        self.offset = 0
        self.meta: dict[str, Any] = meta if meta is not None else {}

    # ------------------------------------------------------------------
    # lifecycle (owner-notifying)
    # ------------------------------------------------------------------
    @property
    def state(self) -> EntryState:
        """Lifecycle state; assignment notifies the owning queue."""
        return self._state

    @state.setter
    def state(self, value: EntryState) -> None:
        old = self._state
        if value is old:
            return
        self._state = value
        owner = self._owner
        if owner is not None:
            owner._note_state_change(self, old, value)

    # ------------------------------------------------------------------
    # classification helpers used by strategies
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes still to be sent for this entry."""
        return self.remaining

    @property
    def is_control(self) -> bool:
        """Engine-generated protocol traffic (REQ/ACK)."""
        return self.kind is not EntryKind.DATA

    @property
    def aggregatable(self) -> bool:
        """May this entry share a packet with others?

        SAFER fragments travel alone (deterministic wire layout);
        rendezvous bulk data always goes zero-copy on its own; engine
        control traffic rides its own protocol packets.
        """
        if self.is_control:
            return False
        if self._state is EntryState.RDV_READY:
            return False
        if self.fragment is not None and self.fragment.mode.value == "safer":
            return False
        return True

    @property
    def deferrable(self) -> bool:
        """May later entries of the same flow overtake this one?"""
        return self.fragment is not None and self.fragment.mode.value == "later"

    def consume(self, n_bytes: int) -> int:
        """Mark ``n_bytes`` as dispatched; returns the slice offset.

        Transitions to ``SENT`` when nothing remains.
        """
        if n_bytes <= 0 or n_bytes > self.remaining:
            raise ConfigurationError(
                f"{self!r}: cannot consume {n_bytes} of "
                f"{self.remaining} remaining bytes"
            )
        start = self.offset
        self.offset += n_bytes
        self.remaining -= n_bytes
        owner = self._owner
        state = self._state
        if owner is not None and (state is _WAITING or state is _RDV_READY):
            owner._note_bytes_consumed(n_bytes)
        if self.remaining == 0:
            self.state = EntryState.SENT
        return start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fragment = self.fragment
        label = (
            f"msg={fragment.message.message_id}[{fragment.index}]"
            if fragment is not None
            else self.kind.value
        )
        return f"SubmitEntry({label} ->{self.dst} {self.remaining}B {self.state.value})"
