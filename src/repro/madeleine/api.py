"""The public Madeleine packing API.

This is the interface middlewares program against (reference [1] of the
paper): open a flow, begin a message, ``pack`` fragments with explicit
constraint modes, ``flush``.  The same API drives either engine — the
paper's optimizing engine (:class:`repro.core.engine.OptimizingEngine`)
or the deterministic baseline
(:class:`repro.baseline.legacy.LegacyEngine`) — which is what makes the
head-to-head experiments fair.

Example
-------
::

    flow = api.open_flow(dst="n1", traffic_class=TrafficClass.BULK)
    session = api.begin(flow)
    session.pack(16, express=True)          # header, readable early
    session.pack(64 * KiB, mode=PackMode.LATER)
    message = session.flush()
    # message.completion resolves with the delivery time
"""

from __future__ import annotations

from typing import Protocol

from repro.madeleine.message import Flow, Message, PackMode
from repro.madeleine.rx import MessageReassembler
from repro.network.virtual import TrafficClass
from repro.sim.process import Future
from repro.sim.resources import Store
from repro.util.errors import ConfigurationError, ProtocolError

__all__ = ["CommEngineProtocol", "PackingSession", "UnpackingSession", "MadAPI"]


class CommEngineProtocol(Protocol):
    """What the API needs from an engine (both engines satisfy this)."""

    node_name: str

    def submit_message(self, message: Message) -> None:
        """Accept a flushed message into the waiting lists."""


class PackingSession:
    """Builder for one structured message."""

    def __init__(
        self,
        engine: CommEngineProtocol,
        flow: Flow,
        context: dict | None = None,
    ) -> None:
        self._engine = engine
        self._message: Message | None = Message(flow, context, seq=flow.messages_sent)
        flow.messages_sent += 1

    def pack(
        self,
        size: int,
        mode: PackMode = PackMode.CHEAPER,
        express: bool = False,
    ) -> "PackingSession":
        """Append one fragment; returns ``self`` for chaining."""
        if self._message is None:
            raise ConfigurationError("pack() after flush()")
        self._message.add_fragment(size, mode, express)
        return self

    def flush(self) -> Message:
        """Hand the message to the engine; the session is then closed."""
        if self._message is None:
            raise ConfigurationError("flush() called twice")
        message, self._message = self._message, None
        self._engine.submit_message(message)
        return message


class UnpackingSession:
    """Receive-side mirror of :class:`PackingSession` (``mad_begin_unpacking``).

    Latches onto the *next* message of an incoming flow and reads its
    fragments in packing order; express fragments resolve as soon as
    their bytes arrive, ahead of the message body::

        session = api.begin_unpacking(flow)
        header = yield session.unpack(16)      # early: it was express
        body = yield session.unpack()          # resolves at body arrival
        message = yield session.end()

    Declared sizes are checked against the sender's packing — a mismatch
    is a protocol error, exactly like in Madeleine.
    """

    def __init__(self, reassembler: MessageReassembler, flow: Flow) -> None:
        self._reassembler = reassembler
        self._message_future = reassembler.next_message(flow)
        self._cursor = 0
        self._ended = False

    def _with_message(self, action):
        """Run ``action(message)`` once the session's message is known,
        returning the future ``action`` produces, flattened."""
        out = Future()

        def when_known(message):
            inner = action(message)
            inner.add_callback(out.resolve)

        self._message_future.add_callback(when_known)
        return out

    def unpack(self, size: int | None = None):
        """Future for the next fragment (in packing order).

        ``size``, when given, must match the sender's fragment size.
        """
        if self._ended:
            raise ConfigurationError("unpack() after end()")
        index = self._cursor
        self._cursor += 1

        def action(message):
            if index >= len(message.fragments):
                raise ProtocolError(
                    f"unpack #{index + 1} but message {message.message_id} has "
                    f"only {len(message.fragments)} fragment(s)"
                )
            fragment = message.fragments[index]
            if size is not None and fragment.size != size:
                raise ProtocolError(
                    f"unpack expected {size} B but fragment {index} of message "
                    f"{message.message_id} carries {fragment.size} B"
                )
            return self._reassembler.when_fragment_complete(fragment)

        return self._with_message(action)

    def end(self):
        """Future resolving with the message once it is fully delivered."""
        self._ended = True

        def action(message):
            out = Future()
            message.completion.add_callback(lambda _t: out.resolve(message))
            return out

        return self._with_message(action)


class MadAPI:
    """Per-node facade over the engine (send side) and reassembler (receive side).

    ``engine`` is ``None`` for a node that lives in another process (a
    live peer builds the whole flow table but owns one node): flows can
    be opened and inboxes named on it, so every peer numbers the flows
    alike, but nothing can be sent or received through it.
    """

    def __init__(
        self,
        node_name: str,
        engine: CommEngineProtocol | None,
        reassembler: MessageReassembler,
    ) -> None:
        if engine is not None and engine.node_name != node_name:
            raise ConfigurationError(
                f"engine of node {engine.node_name!r} wired to API of {node_name!r}"
            )
        self.node_name = node_name
        self.engine = engine
        self.reassembler = reassembler
        #: Every flow opened from this node, in opening order.
        self.flows: list[Flow] = []

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def open_flow(
        self,
        dst: str,
        name: str | None = None,
        traffic_class: TrafficClass = TrafficClass.DEFAULT,
    ) -> Flow:
        """Open a directed flow from this node to ``dst``."""
        if name is None:
            name = f"{self.node_name}->{dst}#{len(self.flows)}"
        flow_id = self.reassembler.sim.ids.flow()
        flow = Flow(flow_id, name, self.node_name, dst, traffic_class)
        self.flows.append(flow)
        return flow

    def begin(self, flow: Flow, context: dict | None = None) -> PackingSession:
        """Start packing a message on a flow opened from this node.

        ``context`` attaches opaque application metadata to the message
        (e.g. an MPI tag) readable at the receiver.
        """
        if flow.src != self.node_name:
            raise ConfigurationError(
                f"flow {flow.name!r} originates at {flow.src!r}, not {self.node_name!r}"
            )
        if self.engine is None:
            raise self._no_engine("send")
        return PackingSession(self.engine, flow, context)

    def send(
        self,
        flow: Flow,
        payload_size: int,
        header_size: int = 16,
        mode: PackMode = PackMode.CHEAPER,
        context: dict | None = None,
    ) -> Message:
        """Convenience: header (express) + payload in one message."""
        session = self.begin(flow, context)
        if header_size > 0:
            session.pack(header_size, express=True)
        session.pack(payload_size, mode=mode)
        return session.flush()

    # ------------------------------------------------------------------
    # receive side (flows terminating at this node)
    # ------------------------------------------------------------------
    def subscribe(self, flow: Flow, callback) -> None:
        """Completion callback for every message of an incoming flow."""
        self._check_incoming(flow)
        self.reassembler.subscribe(flow, callback)

    def subscribe_express(self, flow: Flow, callback) -> None:
        """Early-header callback (``receive_express``) on an incoming flow."""
        self._check_incoming(flow)
        self.reassembler.subscribe_express(flow, callback)

    def inbox(self, flow: Flow) -> Store:
        """Mailbox of completed messages on an incoming flow."""
        self._check_incoming(flow)
        return self.reassembler.inbox(flow)

    def begin_unpacking(self, flow: Flow) -> UnpackingSession:
        """Latch onto the next incoming message of a flow (receive side)."""
        self._check_incoming(flow)
        return UnpackingSession(self.reassembler, flow)

    def _no_engine(self, verb: str) -> ConfigurationError:
        return ConfigurationError(
            f"cannot {verb} on node {self.node_name!r}: it has no engine in this process"
        )

    def _check_incoming(self, flow: Flow) -> None:
        if flow.dst != self.node_name:
            raise ConfigurationError(
                f"flow {flow.name!r} terminates at {flow.dst!r}, not {self.node_name!r}"
            )
