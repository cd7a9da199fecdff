"""Socket-level chaos: seeded fault injection on the live wire.

The simulated plane injects faults *below* the NIC model
(:mod:`repro.network.faults`); the live plane injects them *below* the
stream framing — on the actual bytes a peer is about to write to a
socket.  Same grammar, same lottery, same determinism contract:

* the scenario ``"faults"`` block is read once, for both planes, into a
  :class:`~repro.network.faults.FaultConfig`; of its keys the live plane
  alone runs ``disconnect`` (periodic hard connection close), ``die``
  (process-death injection for degraded-run tests) and ``heartbeat``
  (liveness tuning), and it refuses ``per_nic`` / ``per_network``
  (chaos applies per connection) before any peer is spawned;
* every peer derives one :class:`ChaosInjector` — the simulator's
  :class:`~repro.network.faults.FaultLottery` plus the two operations
  only a byte stream has, corrupting a record and closing the
  connection — per outbound link from the shared seed, so the injected
  fault *sequence* is a pure function of ``(seed, link name)`` —
  identical across runs, independent of socket timing;
* corruption flips a byte at or past
  :data:`~repro.live.transport.ENVELOPE_CRC_OFFSET` (the CRC-covered
  frame body), so an injected flip never desynchronizes the
  length-prefixed stream, forges a sequence number, or lands on an
  ignored prefix byte — the frame CRC catches it and the retransmit
  layer recovers.

The injector decides; the hub (:mod:`repro.live.hub`) delivers.  That
is the sim split between :class:`~repro.network.faults.FaultPlane` and
:class:`~repro.network.reliable.ReliableTransport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.live.transport import ENVELOPE_CRC_OFFSET
from repro.network.faults import FaultConfig, FaultLottery, FaultPlaneStats
from repro.util.rng import SeedSequenceRegistry

__all__ = ["ChaosStats", "ChaosInjector"]

#: Nominal one-way latency stand-in for the loopback wire.  The default
#: retransmit timeout is 4x the packet's own one-way latency, which is
#: meaningless over a real socket; handing the send window this
#: constant makes an unconfigured reliability block resolve to a 50 ms
#: base RTO.
NOMINAL_ONE_WAY = 0.0125


@dataclass(slots=True)
class ChaosStats(FaultPlaneStats):
    """What one injector has done to its link so far."""

    disconnects: int = 0


class ChaosInjector(FaultLottery):
    """Seeded per-link fault decisions for outbound records.

    The simulator's :class:`~repro.network.faults.FaultLottery` over
    the streams ``chaos:{link}`` / ``chaos:ack:{link}``, so the verdict
    sequence is a pure function of ``(config.seed, link)``, never of
    wall-clock or socket timing.  The *effect* of a verdict (how long a
    delayed write actually takes) is of course timing-dependent — only
    the decisions are reproducible, exactly as in the sim plane.
    """

    def __init__(self, config: FaultConfig, link: str) -> None:
        rng = SeedSequenceRegistry(config.seed)
        super().__init__(
            config.spec,
            rng.stream(f"chaos:{link}"),
            rng.stream(f"chaos:ack:{link}"),
            ChaosStats(),
        )
        self.config = config
        self.link = link
        self._corrupt_stream = rng.stream(f"chaos:corrupt:{link}")
        self._since_disconnect = 0

    def corrupt_record(self, record: bytes) -> bytes:
        """Flip one payload byte of an enveloped stream record.

        Only offsets inside the CRC-covered frame body are touched, so
        the stream stays parseable and the corruption is *detected*
        (CRC mismatch → tolerant decoder drops it) rather than fatal
        or — worse — silent (the frame prefix carries reserved bytes
        the decoder ignores).  Records too short to corrupt safely are
        returned unchanged.
        """
        if len(record) <= ENVELOPE_CRC_OFFSET:
            return record
        span = len(record) - ENVELOPE_CRC_OFFSET
        offset = ENVELOPE_CRC_OFFSET + int(self._corrupt_stream.uniform() * span) % span
        flip = 1 + int(self._corrupt_stream.uniform() * 255) % 255
        mutated = bytearray(record)
        mutated[offset] ^= flip
        return bytes(mutated)

    def should_disconnect(self) -> bool:
        """Whether to hard-close the connection after this record."""
        every = self.config.disconnect_every
        if every <= 0:
            return False
        self._since_disconnect += 1
        if self._since_disconnect >= every:
            self._since_disconnect = 0
            self.stats.disconnects += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosInjector({self.link!r}, judged={self.stats.judged}, "
            f"drops={self.stats.drops}, disconnects={self.stats.disconnects})"
        )
