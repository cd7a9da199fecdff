"""Socket-level chaos: seeded fault injection on the live wire.

The simulated plane injects faults *below* the NIC model
(:mod:`repro.network.faults`); the live plane injects them *below* the
stream framing — on the actual bytes a peer is about to write to a
socket.  Same vocabulary, same lottery (one implementation:
:class:`~repro.network.faults.FaultLottery`), same determinism
contract:

* a :class:`ChaosConfig` is parsed from the scenario ``"faults"`` block
  using the PR 1 fault grammar (``drop`` / ``corrupt`` / ``duplicate``
  / ``jitter`` probabilities, ``outages``, ``reliability``, ``seed``)
  plus three live-only knobs — ``disconnect`` (periodic hard connection
  close), ``die`` (process-death injection for degraded-run tests) and
  ``heartbeat`` (liveness tuning);
* every peer derives one :class:`ChaosInjector` — the simulator's
  lottery plus the two operations only a byte stream has, corrupting a
  record and closing the connection — per outbound link from the shared
  seed, so the injected fault *sequence* is a pure function of
  ``(seed, link name)`` — identical across runs, independent of socket
  timing;
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

import signal as _signal
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.live.transport import ENVELOPE_CRC_OFFSET
from repro.network.faults import (
    FaultLottery,
    FaultPlaneStats,
    FaultSpec,
    RailOutage,
    parse_fault_spec,
    parse_outage,
)
from repro.network.reliable import ReliabilityConfig
from repro.util.errors import ConfigurationError, FaultInjectionError
from repro.util.rng import SeedSequenceRegistry

__all__ = ["DieSpec", "ChaosConfig", "ChaosStats", "ChaosInjector"]

#: Nominal one-way latency stand-in for the loopback wire.  The default
#: retransmit timeout is 4x the packet's own one-way latency, which is
#: meaningless over a real socket; handing the send window this
#: constant makes an unconfigured reliability block resolve to a 50 ms
#: base RTO.
NOMINAL_ONE_WAY = 0.0125

_CHAOS_KEYS = frozenset(
    {
        "seed",
        "drop",
        "corrupt",
        "duplicate",
        "jitter",
        "outages",
        "reliability",
        "disconnect",
        "die",
        "heartbeat",
    }
)
_DISCONNECT_KEYS = frozenset({"every"})
_DIE_KEYS = frozenset({"rank", "after", "signal"})


def _parse_signal(value: Any) -> int:
    if isinstance(value, int):
        return value
    name = str(value).upper()
    if not name.startswith("SIG"):
        name = "SIG" + name
    try:
        return int(getattr(_signal, name))
    except AttributeError:
        raise ConfigurationError(f"unknown die signal {value!r}") from None


@dataclass(frozen=True, slots=True)
class DieSpec:
    """Process-death injection: one rank kills itself mid-run.

    Lets the degraded-path integration tests script a SIGKILL from
    inside the scenario instead of reaching into the coordinator's
    process table.
    """

    rank: int
    after: float  #: seconds after START
    signal: int = int(_signal.SIGKILL)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"die rank must be >= 0, got {self.rank}")
        if self.after < 0:
            raise ConfigurationError(f"die delay must be >= 0, got {self.after}")


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """Everything the scenario ``"faults"`` block means to a live run."""

    spec: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0
    outages: tuple[RailOutage, ...] = ()
    #: Hard-close every outbound connection after this many shipped
    #: records (0 = never).  Exercises reconnect + retransmit-on-redial.
    disconnect_every: int = 0
    die: DieSpec | None = None
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    heartbeat_interval: float = 0.25
    heartbeat_misses: int = 8

    def __post_init__(self) -> None:
        if self.disconnect_every < 0:
            raise ConfigurationError(
                f"disconnect.every must be >= 0, got {self.disconnect_every}"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat.interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_misses < 1:
            raise ConfigurationError(
                f"heartbeat.misses must be >= 1, got {self.heartbeat_misses}"
            )

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], default_seed: int = 0) -> "ChaosConfig":
        """Parse a scenario ``"faults"`` block for the live plane.

        Rejects unknown keys loudly, including the sim-only
        ``per_nic`` / ``per_network`` overrides — a live link has no
        per-rail fault lottery (chaos rides the connection, outages
        ride the NIC objects).
        """
        spec = dict(spec)
        for key in spec:
            if key in ("per_nic", "per_network"):
                raise ConfigurationError(
                    f"faults key {key!r} is not supported by the live plane "
                    "(chaos applies per connection; use 'outages' for rail loss)"
                )
            if key not in _CHAOS_KEYS:
                raise ConfigurationError(
                    f"unknown live faults key {key!r} (known: {sorted(_CHAOS_KEYS)})"
                )
        try:
            fault_spec = parse_fault_spec(
                {
                    k: spec[k]
                    for k in ("drop", "corrupt", "duplicate", "jitter")
                    if k in spec
                },
                "live chaos",
            )
            outages = tuple(parse_outage(entry) for entry in spec.get("outages", []))
        except FaultInjectionError as bad:
            raise ConfigurationError(str(bad)) from None

        disconnect = dict(spec.get("disconnect") or {})
        for key in disconnect:
            if key not in _DISCONNECT_KEYS:
                raise ConfigurationError(
                    f"unknown faults disconnect key {key!r} "
                    f"(known: {sorted(_DISCONNECT_KEYS)})"
                )
        die_spec = spec.get("die")
        die = None
        if die_spec is not None:
            die_spec = dict(die_spec)
            for key in die_spec:
                if key not in _DIE_KEYS:
                    raise ConfigurationError(
                        f"unknown faults die key {key!r} (known: {sorted(_DIE_KEYS)})"
                    )
            if "rank" not in die_spec:
                raise ConfigurationError("faults die block requires 'rank'")
            die = DieSpec(
                rank=int(die_spec["rank"]),
                after=float(die_spec.get("after", 0.0)),
                signal=_parse_signal(die_spec.get("signal", "KILL")),
            )
        hb = dict(spec.get("heartbeat") or {})
        for key in hb:
            if key not in ("interval", "misses"):
                raise ConfigurationError(
                    f"unknown faults heartbeat key {key!r} "
                    "(known: ['interval', 'misses'])"
                )
        return cls(
            spec=fault_spec,
            seed=int(spec.get("seed", default_seed)),
            outages=outages,
            disconnect_every=int(disconnect.get("every", 0)),
            die=die,
            reliability=ReliabilityConfig.from_spec(spec.get("reliability", {})),
            heartbeat_interval=float(hb.get("interval", 0.25)),
            heartbeat_misses=int(hb.get("misses", 8)),
        )

    @property
    def wire_active(self) -> bool:
        """Whether wire-level injection (and hence the reliability
        protocol) is in force.  Outage-only or die-only chaos sends
        everything unsequenced: those failures are detected, not
        retransmitted around."""
        return not self.spec.is_null or self.disconnect_every > 0

    @property
    def dead_after(self) -> float:
        """Silence budget before a heartbeat source is presumed dead."""
        return self.heartbeat_interval * self.heartbeat_misses


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

    def __init__(self, config: ChaosConfig, link: str) -> None:
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
