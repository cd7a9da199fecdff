"""Receiver-side message reassembly.

A :class:`MessageReassembler` is installed as the (default) data sink of
a node's :class:`~repro.network.receiver.Receiver`.  It turns wire
segments back into fragments and fragments back into messages, coping
with everything the optimizer is allowed to do on the send side:
aggregation (many fragments per packet), striping (one fragment sliced
across several packets, possibly over different rails, arriving out of
order), and cross-flow interleaving.

Safety invariants enforced here (property-tested):

* no byte of a fragment may be delivered twice (duplicate slices raise
  :class:`~repro.util.errors.ProtocolError`);
* a message completes exactly once, when *all* its bytes have arrived.
"""

from __future__ import annotations

from typing import Callable

from repro.madeleine.message import Flow, Fragment, Message
from repro.network.wire import WirePacket
from repro.sim.engine import Simulator
from repro.sim.resources import Store
from repro.util.errors import ProtocolError

__all__ = ["MessageReassembler"]

#: Signature of completion callbacks: (message, completion_time).
MessageCallback = Callable[[Message, float], None]
#: Signature of express callbacks: (fragment, completion_time).
ExpressCallback = Callable[[Fragment, float], None]


class _FragmentProgress:
    """Delivered-range bookkeeping for one fragment."""

    __slots__ = ("fragment", "delivered", "ranges")

    def __init__(self, fragment: Fragment) -> None:
        self.fragment = fragment
        self.delivered = 0
        self.ranges: list[tuple[int, int]] = []  # sorted (offset, length)

    def add(self, offset: int, length: int) -> None:
        end = offset + length
        if offset < 0 or end > self.fragment.size:
            raise ProtocolError(
                f"{self.fragment!r}: slice [{offset}, {end}) "
                f"outside [0, {self.fragment.size})"
            )
        for existing_offset, existing_length in self.ranges:
            if offset < existing_offset + existing_length and existing_offset < end:
                raise ProtocolError(
                    f"{self.fragment!r}: duplicate delivery of "
                    f"[{offset}, {end})"
                )
        self.ranges.append((offset, length))
        self.ranges.sort()
        self.delivered += length

    @property
    def complete(self) -> bool:
        return self.delivered == self.fragment.size


class MessageReassembler:
    """Per-node reassembly of incoming data packets."""

    def __init__(self, sim: Simulator, node_name: str) -> None:
        self.sim = sim
        self.node_name = node_name
        self._progress: dict[Fragment, _FragmentProgress] = {}
        self._message_remaining: dict[int, int] = {}
        self._flow_callbacks: dict[int, list[MessageCallback]] = {}
        self._express_callbacks: dict[int, list[ExpressCallback]] = {}
        self._inboxes: dict[int, Store] = {}
        self._announced: dict[int, list[Message]] = {}
        self._announce_waiters: dict[int, list] = {}
        self._fragment_watchers: dict[Fragment, list] = {}
        self._completed_messages: set[int] = set()
        self.messages_completed = 0
        self.on_message_complete: MessageCallback | None = None

    # ------------------------------------------------------------------
    # subscriptions (middleware side)
    # ------------------------------------------------------------------
    def subscribe(self, flow: Flow, callback: MessageCallback) -> None:
        """Run ``callback(message, time)`` for every completed message of a flow."""
        self._flow_callbacks.setdefault(flow.flow_id, []).append(callback)

    def subscribe_express(self, flow: Flow, callback: ExpressCallback) -> None:
        """Run ``callback(fragment, time)`` when an express fragment lands.

        This is the ``receive_express`` path: headers become readable
        before the message body has finished arriving.
        """
        self._express_callbacks.setdefault(flow.flow_id, []).append(callback)

    def inbox(self, flow: Flow) -> Store:
        """A mailbox receiving each completed message of a flow.

        Created lazily; closed-loop workload processes ``yield
        inbox.get()`` to wait for the next message.
        """
        if flow.flow_id not in self._inboxes:
            self._inboxes[flow.flow_id] = Store(self.sim, name=f"inbox:{flow.name}")
        return self._inboxes[flow.flow_id]

    # ------------------------------------------------------------------
    # sink interface (wired to network.Receiver)
    # ------------------------------------------------------------------
    def sink(self, packet: WirePacket) -> None:
        """Consume one delivered data packet."""
        now = self.sim.now
        for segment in packet.segments:
            fragment = segment.payload
            if not isinstance(fragment, Fragment):
                raise ProtocolError(
                    f"non-fragment payload {segment.payload!r} on data channel"
                )
            self._deliver_slice(fragment, segment.offset, segment.length, now)

    def _deliver_slice(self, fragment: Fragment, offset: int, length: int, now: float) -> None:
        message = fragment.message
        if message.flow.dst != self.node_name:
            raise ProtocolError(
                f"fragment of flow {message.flow.name!r} (dst {message.flow.dst!r}) "
                f"delivered to node {self.node_name!r}"
            )
        if message.message_id in self._completed_messages:
            raise ProtocolError(
                f"slice for already-completed message {message.message_id} "
                f"(replayed packet?)"
            )
        progress = self._progress.get(fragment)
        if progress is None:
            progress = _FragmentProgress(fragment)
            self._progress[fragment] = progress
            if message.message_id not in self._message_remaining:
                self._message_remaining[message.message_id] = len(message.fragments)
                self._announce(message, now)
        was_complete = progress.complete
        progress.add(offset, length)
        if progress.complete and not was_complete:
            self._on_fragment_complete(fragment, now)

    def _announce(self, message: Message, now: float) -> None:
        """First slice of a new message arrived: wake unpacking sessions."""
        flow_id = message.flow.flow_id
        waiters = self._announce_waiters.get(flow_id)
        if waiters:
            waiters.pop(0).resolve(message)
        else:
            self._announced.setdefault(flow_id, []).append(message)

    def next_message(self, flow: Flow):
        """A future resolving with the next (possibly incomplete) message
        announced on a flow — the ``mad_begin_unpacking`` latch point."""
        from repro.sim.process import Future

        future = Future()
        announced = self._announced.get(flow.flow_id)
        if announced:
            future.resolve(announced.pop(0))
        else:
            self._announce_waiters.setdefault(flow.flow_id, []).append(future)
        return future

    def when_fragment_complete(self, fragment: Fragment):
        """A future resolving with ``fragment`` once all its bytes arrived."""
        from repro.sim.process import Future

        future = Future()
        progress = self._progress.get(fragment)
        if (progress is not None and progress.complete) or fragment.message.completion.done:
            future.resolve(fragment)
        else:
            self._fragment_watchers.setdefault(fragment, []).append(future)
        return future

    def _on_fragment_complete(self, fragment: Fragment, now: float) -> None:
        message = fragment.message
        for watcher in self._fragment_watchers.pop(fragment, ()):
            watcher.resolve(fragment)
        if fragment.express:
            for callback in self._express_callbacks.get(message.flow.flow_id, ()):
                callback(fragment, now)
        remaining = self._message_remaining[message.message_id] - 1
        self._message_remaining[message.message_id] = remaining
        if remaining == 0:
            self._complete_message(message, now)

    def _complete_message(self, message: Message, now: float) -> None:
        self.messages_completed += 1
        self._completed_messages.add(message.message_id)
        # Free per-fragment state; the message is done.
        for fragment in message.fragments:
            self._progress.pop(fragment, None)
        del self._message_remaining[message.message_id]
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                now,
                f"reasm:{self.node_name}",
                "message.complete",
                message=message.message_id,
                flow=message.flow.name,
                src=message.flow.src,
                bytes=message.total_size,
                submit_time=message.submit_time,
            )
        message.completion.resolve(now)
        if self.on_message_complete is not None:
            self.on_message_complete(message, now)
        flow_id = message.flow.flow_id
        for callback in self._flow_callbacks.get(flow_id, ()):
            callback(message, now)
        inbox = self._inboxes.get(flow_id)
        if inbox is not None:
            inbox.put(message)

    # ------------------------------------------------------------------
    # abandonment (degraded runs)
    # ------------------------------------------------------------------
    def abandon_incomplete(self, predicate: Callable[[Message], bool]) -> int:
        """Drop partially reassembled messages matching ``predicate``.

        Used by the live plane when a sender dies mid-message: its
        remaining bytes will never arrive, and an eternally incomplete
        message would pin :attr:`incomplete_messages` above zero and
        wedge quiescence detection.  All per-fragment progress and
        watcher state is released; completion futures are left
        unresolved (the message did *not* complete).  Returns the
        number of messages abandoned.
        """
        doomed: dict[int, Message] = {}
        for progress in list(self._progress.values()):
            message = progress.fragment.message
            if (
                message.message_id in self._message_remaining
                and message.message_id not in doomed
                and predicate(message)
            ):
                doomed[message.message_id] = message
        for message in doomed.values():
            for fragment in message.fragments:
                self._progress.pop(fragment, None)
                self._fragment_watchers.pop(fragment, None)
            self._message_remaining.pop(message.message_id, None)
        return len(doomed)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def incomplete_messages(self) -> int:
        """Messages with at least one byte delivered but not yet complete."""
        return len(self._message_remaining)
