"""Deterministic fault injection, and the one reading of a ``"faults"`` block.

Real high-speed fabrics drop, corrupt, duplicate, and reorder packets,
and lose whole rails; the engine's scheduling claims only mean something
if they survive that.  A :class:`FaultPlane` is the single authority for
*what goes wrong* on the simulated fabric: per-NIC / per-network
:class:`FaultSpec` lotteries (packet drop, corruption, duplication,
delay jitter) plus scheduled :class:`RailOutage` events that drive
:meth:`repro.network.nic.NIC.fail` / :meth:`~repro.network.nic.NIC.recover`.

Every decision is one :class:`FaultLottery` draw from a named stream of
the plane's **own** :class:`~repro.util.rng.SeedSequenceRegistry` (one
lottery per NIC — and, in the live plane, the same lottery per socket
link: :class:`~repro.live.chaos.ChaosInjector`), so

* a whole faulty run is reproducible from one integer — identical seeds
  yield byte-identical drop/duplicate/retransmit counters, and
* enabling faults does not perturb the workload RNG streams.

The plane decides; it does not deliver.  The
:class:`~repro.network.reliable.ReliableTransport` consults
:meth:`FaultPlane.judge` on every transmission attempt and turns the
verdict into (non-)arrivals, so recovery — retransmission, dedup,
reordering repair, rail failover — lives in one place.

A scenario's ``"faults"`` block has one grammar for both planes, read
once by :meth:`FaultConfig.from_spec`; each plane refuses the keys it
cannot run in one table (:data:`repro.runtime.cluster.REFUSED`).  An
outage names a rail as both planes name it (:func:`rail_names`), and
one match (:meth:`RailOutage.hits`) picks its NICs on either plane.
"""

from __future__ import annotations

import signal as _signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.network.reliable import ReliabilityConfig
from repro.util.errors import REQUIRED, ConfigurationError, read_block, schema_of
from repro.util.rng import RngStream, SeedSequenceRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import Fabric
    from repro.network.nic import NIC
    from repro.sim.engine import Simulator

__all__ = [
    "FaultSpec",
    "RailOutage",
    "DieSpec",
    "FaultConfig",
    "FaultVerdict",
    "FaultPlaneStats",
    "FaultLottery",
    "FaultPlane",
    "rail_names",
    "check_outages",
]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Per-link fault probabilities and timing noise.

    ``drop``, ``corrupt`` and ``duplicate`` are independent per-packet
    probabilities; ``jitter`` is the mean of an exponential extra delay
    added to each delivery (nonzero jitter causes reordering between
    packets of the same link).
    """

    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "corrupt", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} probability must be in [0, 1], got {p}"
                )
        if not self.jitter >= 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def is_null(self) -> bool:
        """Whether this spec never perturbs anything."""
        return (
            self.drop == 0.0
            and self.corrupt == 0.0
            and self.duplicate == 0.0
            and self.jitter == 0.0
        )


@dataclass(frozen=True, slots=True)
class RailOutage:
    """One scheduled rail failure: a NIC (or whole network) down at ``at``.

    Exactly one of ``nic`` / ``network`` names the target; ``recover``
    (optional) schedules the rail back up.
    """

    at: float
    nic: str | None = None
    network: str | None = None
    recover: float | None = None

    def __post_init__(self) -> None:
        if (self.nic is None) == (self.network is None):
            raise ConfigurationError(
                "an outage must name exactly one of 'nic' or 'network'"
            )
        if not self.at >= 0:
            raise ConfigurationError(f"outage time must be >= 0, got {self.at}")
        if self.recover is not None and not self.recover > self.at:
            raise ConfigurationError(
                f"recovery at t={self.recover} must come after the outage at t={self.at}"
            )

    def hits(self, nic: str, network: str) -> bool:
        """Whether this outage takes down the rail ``nic`` of ``network``
        (names as :func:`rail_names` gives them, on either plane)."""
        return nic == self.nic if self.nic is not None else network == self.network


@dataclass(frozen=True, slots=True)
class DieSpec:
    """Process-death injection: one live rank kills itself mid-run.

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
        if not self.after >= 0:
            raise ConfigurationError(f"die delay must be >= 0, got {self.after}")


def _signal_number(value: int | str) -> int:
    if isinstance(value, int):
        return value
    name = value.upper()
    if not name.startswith("SIG"):
        name = "SIG" + name
    try:
        return int(getattr(_signal, name))
    except AttributeError:
        raise ConfigurationError(f"unknown die signal {value!r}") from None


#: The scenario ``"faults"`` grammar, one for both planes: key →
#: ``(kind, default)`` (see :func:`~repro.util.errors.read_block`) where
#: a key is no constructor's argument; lotteries, outages and the
#: ``reliability`` sub-block are typed by ``FaultSpec``, ``RailOutage``
#: and ``ReliabilityConfig``.
_FAULTS_SCHEMA = {
    **schema_of(FaultSpec),
    "per_network": (Mapping, {}),
    "per_nic": (Mapping, {}),
    "outages": (list, ()),
    "reliability": (Mapping, {}),
    "disconnect": (Mapping, {}),
    "die": (Mapping, None),
    "heartbeat": (Mapping, {}),
}
_DISCONNECT_SCHEMA = {"every": (int, 0)}
_DIE_SCHEMA = {"rank": (int, REQUIRED), "after": (float, 0.0), "signal": ((int, str), "KILL")}
_HEARTBEAT_SCHEMA = {"interval": (float, 0.25), "misses": (int, 8)}


@dataclass(frozen=True)
class FaultConfig:
    """Everything a scenario ``"faults"`` block means, to either plane.

    ``spec`` is the default lottery, ``per_network`` / ``per_nic`` the
    simulator's overrides of it and ``seed`` the lotteries' seed (the
    cluster's when the block names none).  Only the live plane runs
    ``disconnect_every`` (hard-close a connection every that many
    records; 0 = never), ``die`` and the heartbeat.  ``keys`` are the
    keys the block named: what a plane refuses by.
    """

    spec: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0
    per_network: Mapping[str, FaultSpec] = field(default_factory=dict)
    per_nic: Mapping[str, FaultSpec] = field(default_factory=dict)
    outages: tuple[RailOutage, ...] = ()
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    disconnect_every: int = 0
    die: DieSpec | None = None
    heartbeat_interval: float = 0.25
    heartbeat_misses: int = 8
    keys: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.disconnect_every < 0:
            raise ConfigurationError(
                f"disconnect.every must be >= 0, got {self.disconnect_every}"
            )
        if not self.heartbeat_interval > 0:
            raise ConfigurationError(
                f"heartbeat.interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_misses < 1:
            raise ConfigurationError(
                f"heartbeat.misses must be >= 1, got {self.heartbeat_misses}"
            )

    @classmethod
    def from_spec(cls, block: Any, default_seed: int = 0) -> "FaultConfig":
        """Read a scenario ``"faults"`` block (its only reader); a typo'd
        or wrong-typed knob is a ``ConfigurationError`` naming its key."""
        top = read_block(block, {**_FAULTS_SCHEMA, "seed": (int, default_seed)}, "faults")

        def lotteries(key: str) -> dict[str, FaultSpec]:
            return {
                name: FaultSpec(**read_block(sub, FaultSpec, f"faults.{key}[{name!r}]"))
                for name, sub in top[key].items()
            }

        die = None
        if top["die"] is not None:
            values = read_block(top["die"], _DIE_SCHEMA, "faults.die")
            die = DieSpec(values["rank"], values["after"], _signal_number(values["signal"]))
        heartbeat = read_block(top["heartbeat"], _HEARTBEAT_SCHEMA, "faults.heartbeat")
        return cls(
            spec=FaultSpec(**{key: top[key] for key in schema_of(FaultSpec)}),
            seed=top["seed"],
            per_network=lotteries("per_network"),
            per_nic=lotteries("per_nic"),
            outages=tuple(
                RailOutage(**read_block(entry, RailOutage, f"faults.outages[{i}]"))
                for i, entry in enumerate(top["outages"])
            ),
            reliability=ReliabilityConfig.from_spec(top["reliability"]),
            disconnect_every=read_block(
                top["disconnect"], _DISCONNECT_SCHEMA, "faults.disconnect"
            )["every"],
            die=die,
            heartbeat_interval=heartbeat["interval"],
            heartbeat_misses=heartbeat["misses"],
            keys=frozenset(block),
        )

    @property
    def wire_active(self) -> bool:
        """Whether live wire-level injection (and hence the reliability
        protocol) is in force.  Outage-only or die-only chaos sends
        everything unsequenced: those failures are detected, not
        retransmitted around."""
        return not self.spec.is_null or self.disconnect_every > 0

    @property
    def dead_after(self) -> float:
        """Silence budget before a heartbeat source is presumed dead."""
        return self.heartbeat_interval * self.heartbeat_misses


def rail_names(nodes: Iterable[str], networks: Sequence[tuple[str, int]]) -> list[tuple[str, str]]:
    """The rails of ``nodes`` as ``(nic, network)`` names, as both planes
    name them: the second NIC of ``n1`` on the first ``mx`` network is
    ``n1.mx01`` on ``mx0``."""
    return [
        (f"{node}.{tech}{i}{k}", f"{tech}{i}")
        for node in nodes
        for i, (tech, per_node) in enumerate(networks)
        for k in range(per_node)
    ]


def check_outages(outages: Iterable[RailOutage], rails: Sequence[tuple[str, str]]) -> None:
    """Reject an outage that hits none of ``rails`` (``(nic, network)``
    names), naming what it names and what exists."""
    for outage in outages:
        if not any(outage.hits(nic, network) for nic, network in rails):
            if outage.nic is not None:
                what, known = f"NIC {outage.nic!r}", [nic for nic, _ in rails]
            else:
                what = f"network {outage.network!r}"
                known = list(dict.fromkeys(network for _, network in rails))
            raise ConfigurationError(f"outage names unknown {what} (known: {known})")


@dataclass(frozen=True, slots=True)
class FaultVerdict:
    """The plane's decision for one transmission attempt."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay: float = 0.0  #: extra delay on the primary copy
    dup_delay: float = 0.0  #: extra delay on the duplicate copy

    @property
    def delivers(self) -> bool:
        """Whether any intact copy reaches the receiver."""
        return not self.drop


_CLEAN = FaultVerdict()

@dataclass(slots=True)
class FaultPlaneStats:
    """What a lottery has injected so far (decisions, not recoveries)."""

    judged: int = 0
    drops: int = 0
    corruptions: int = 0
    duplicates: int = 0
    delayed: int = 0


@dataclass(eq=False)
class FaultLottery:
    """The seeded draw: one spec over a decision and an ACK stream.

    The single implementation of *what goes wrong with one
    transmission*, for both planes: :class:`FaultPlane` keeps one per
    NIC (streams ``faults:{nic}`` / ``faults:ack:{nic}``, plane-wide
    stats); the live plane's :class:`~repro.live.chaos.ChaosInjector`
    *is* one per outbound link (``chaos:{link}`` / ``chaos:ack:{link}``).
    The stream names and the draw order below are load-bearing: they
    are what makes a faulty run a function of its seed.
    """

    spec: FaultSpec
    stream: RngStream
    ack_stream: RngStream
    stats: FaultPlaneStats

    def judge(self) -> FaultVerdict:
        """Decide the fate of one transmission attempt."""
        spec = self.spec
        stats = self.stats
        stats.judged += 1
        if spec.is_null:
            return _CLEAN
        stream = self.stream
        drop = spec.drop > 0 and stream.uniform() < spec.drop
        corrupt = spec.corrupt > 0 and stream.uniform() < spec.corrupt
        duplicate = spec.duplicate > 0 and stream.uniform() < spec.duplicate
        delay = stream.exponential(spec.jitter) if spec.jitter > 0 else 0.0
        dup_delay = (
            stream.exponential(spec.jitter) if duplicate and spec.jitter > 0 else 0.0
        )
        if drop:
            stats.drops += 1
        if corrupt:
            stats.corruptions += 1
        if duplicate:
            stats.duplicates += 1
        if delay > 0 or dup_delay > 0:
            stats.delayed += 1
        return FaultVerdict(
            drop=drop, corrupt=corrupt, duplicate=duplicate, delay=delay, dup_delay=dup_delay
        )

    def judge_ack(self) -> bool:
        """Whether one reverse-path acknowledgement is lost (its own
        stream, so the data and ACK lotteries stay independent)."""
        spec = self.spec
        return spec.drop > 0 and self.ack_stream.uniform() < spec.drop


class FaultPlane:
    """Seeded, deterministic fault decisions for a whole fabric.

    Parameters
    ----------
    default:
        Fault spec applied to every NIC without a more specific entry.
    per_network:
        Network name → :class:`FaultSpec` overriding the default.
    per_nic:
        NIC name → :class:`FaultSpec`; the most specific match wins.
    outages:
        Scheduled :class:`RailOutage` events, installed by
        :meth:`install`.
    seed:
        Seed of the plane's private RNG registry.
    """

    def __init__(
        self,
        default: FaultSpec | None = None,
        *,
        per_network: Mapping[str, FaultSpec] | None = None,
        per_nic: Mapping[str, FaultSpec] | None = None,
        outages: Sequence[RailOutage] = (),
        seed: int = 0,
    ) -> None:
        self.default = default if default is not None else FaultSpec()
        self.per_network = dict(per_network) if per_network else {}
        self.per_nic = dict(per_nic) if per_nic else {}
        self.outages = tuple(outages)
        self.seed = int(seed)
        self.stats = FaultPlaneStats()
        self._rng = SeedSequenceRegistry(self.seed)
        self._lotteries: dict[str, FaultLottery] = {}

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def spec_for(self, nic: "NIC") -> FaultSpec:
        """The effective spec for one NIC (nic > network > default)."""
        if nic.name in self.per_nic:
            return self.per_nic[nic.name]
        network = getattr(nic.network, "name", None)
        if network is not None and network in self.per_network:
            return self.per_network[network]
        return self.default

    def lottery_for(self, nic: "NIC") -> FaultLottery:
        """The NIC's seeded draw: its effective spec over the streams
        ``faults:{nic}`` / ``faults:ack:{nic}``, counting plane-wide."""
        lottery = self._lotteries.get(nic.name)
        if lottery is None:
            lottery = self._lotteries[nic.name] = FaultLottery(
                self.spec_for(nic),
                self._rng.stream(f"faults:{nic.name}"),
                self._rng.stream(f"faults:ack:{nic.name}"),
                self.stats,
            )
        return lottery

    def judge(self, nic: "NIC") -> FaultVerdict:
        """Decide the fate of one transmission attempt on ``nic``."""
        return self.lottery_for(nic).judge()

    def judge_ack(self, nic: "NIC") -> bool:
        """Whether the reverse-path acknowledgement for ``nic`` is lost."""
        return self.lottery_for(nic).judge_ack()

    # ------------------------------------------------------------------
    # outages
    # ------------------------------------------------------------------
    def install(self, fabric: "Fabric", sim: "Simulator") -> None:
        """Schedule every outage against a built fabric.

        Raises :class:`~repro.util.errors.ConfigurationError` when an
        outage names a NIC or network the fabric does not have.
        """
        rails = [(nic, nic.network.name) for node in fabric.nodes for nic in node.nics]
        check_outages(self.outages, [(nic.name, network) for nic, network in rails])
        for outage in self.outages:
            for nic, network in rails:
                if outage.hits(nic.name, network):
                    sim.at(outage.at, nic.fail)
                    if outage.recover is not None:
                        sim.at(outage.recover, nic.recover)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlane(default={self.default}, outages={len(self.outages)}, "
            f"seed={self.seed})"
        )
