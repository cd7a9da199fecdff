"""Deterministic fault injection for the simulated fabric.

Real high-speed fabrics drop, corrupt, duplicate, and reorder packets,
and lose whole rails; the engine's scheduling claims only mean something
if they survive that.  A :class:`FaultPlane` is the single authority for
*what goes wrong*: per-NIC / per-network :class:`FaultSpec` lotteries
(packet drop, corruption, duplication, delay jitter) plus scheduled
:class:`RailOutage` events that drive :meth:`repro.network.nic.NIC.fail`
/ :meth:`~repro.network.nic.NIC.recover`.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.util.errors import FaultInjectionError
from repro.util.rng import RngStream, SeedSequenceRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import Fabric
    from repro.network.nic import NIC
    from repro.sim.engine import Simulator

__all__ = [
    "FaultSpec",
    "RailOutage",
    "FaultVerdict",
    "FaultPlaneStats",
    "FaultLottery",
    "FaultPlane",
    "parse_fault_spec",
    "parse_outage",
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
                raise FaultInjectionError(
                    f"{name} probability must be in [0, 1], got {p}"
                )
        if self.jitter < 0:
            raise FaultInjectionError(f"jitter must be >= 0, got {self.jitter}")

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
            raise FaultInjectionError(
                "an outage must name exactly one of 'nic' or 'network'"
            )
        if self.at < 0:
            raise FaultInjectionError(f"outage time must be >= 0, got {self.at}")
        if self.recover is not None and self.recover <= self.at:
            raise FaultInjectionError(
                f"recovery at t={self.recover} must come after the outage at t={self.at}"
            )


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

#: Keys accepted by :meth:`FaultPlane.from_spec` (scenario ``"faults"`` block).
_SPEC_KEYS = frozenset(
    {"seed", "drop", "corrupt", "duplicate", "jitter", "per_network", "per_nic", "outages"}
)
_OUTAGE_KEYS = frozenset({"nic", "network", "at", "recover"})


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
    # construction from a scenario mapping
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], default_seed: int = 0) -> "FaultPlane":
        """Build a plane from a scenario ``"faults"`` block.

        Unknown keys are rejected loudly — a typo'd fault knob silently
        ignored would make a resilience experiment meaningless.
        """
        spec = dict(spec)
        for key in spec:
            if key not in _SPEC_KEYS:
                raise FaultInjectionError(
                    f"unknown faults key {key!r} (known: {sorted(_SPEC_KEYS)})"
                )
        default = FaultSpec(
            drop=float(spec.get("drop", 0.0)),
            corrupt=float(spec.get("corrupt", 0.0)),
            duplicate=float(spec.get("duplicate", 0.0)),
            jitter=float(spec.get("jitter", 0.0)),
        )
        per_network = {
            name: _parse_subspec(f"per_network[{name!r}]", sub)
            for name, sub in dict(spec.get("per_network", {})).items()
        }
        per_nic = {
            name: _parse_subspec(f"per_nic[{name!r}]", sub)
            for name, sub in dict(spec.get("per_nic", {})).items()
        }
        outages = [parse_outage(entry) for entry in spec.get("outages", [])]
        return cls(
            default,
            per_network=per_network,
            per_nic=per_nic,
            outages=outages,
            seed=int(spec.get("seed", default_seed)),
        )

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

        Raises :class:`FaultInjectionError` when an outage names a NIC
        or network the fabric does not have.
        """
        for outage in self.outages:
            for nic in self._resolve(fabric, outage):
                sim.at(outage.at, nic.fail)
                if outage.recover is not None:
                    sim.at(outage.recover, nic.recover)

    @staticmethod
    def _resolve(fabric: "Fabric", outage: RailOutage) -> list["NIC"]:
        if outage.nic is not None:
            for node in fabric.nodes:
                for nic in node.nics:
                    if nic.name == outage.nic:
                        return [nic]
            raise FaultInjectionError(
                f"outage names unknown NIC {outage.nic!r} "
                f"(known: {[n.name for node in fabric.nodes for n in node.nics]})"
            )
        matches = [
            nic
            for node in fabric.nodes
            for nic in node.nics
            if nic.network is not None and nic.network.name == outage.network
        ]
        if not matches:
            raise FaultInjectionError(
                f"outage names unknown network {outage.network!r} "
                f"(known: {[n.name for n in fabric.networks]})"
            )
        return matches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlane(default={self.default}, outages={len(self.outages)}, "
            f"seed={self.seed})"
        )


def parse_fault_spec(sub: Mapping[str, Any], where: str = "spec") -> FaultSpec:
    """Parse one drop/corrupt/duplicate/jitter mapping into a :class:`FaultSpec`.

    Shared vocabulary between the simulated plane's per-NIC/per-network
    sub-specs and the live plane's chaos profile
    (:mod:`repro.live.chaos`), so a fault profile means the same thing
    in both planes.
    """
    sub = dict(sub)
    for key in sub:
        if key not in ("drop", "corrupt", "duplicate", "jitter"):
            raise FaultInjectionError(
                f"unknown key {key!r} in faults {where} "
                "(known: ['corrupt', 'drop', 'duplicate', 'jitter'])"
            )
    return FaultSpec(**{k: float(v) for k, v in sub.items()})


def _parse_subspec(where: str, sub: Mapping[str, Any]) -> FaultSpec:
    return parse_fault_spec(sub, where)


def parse_outage(entry: Mapping[str, Any]) -> RailOutage:
    """Parse one scheduled-outage entry; public so the live chaos
    layer shares the schema (and its strict unknown-key errors)."""
    entry = dict(entry)
    for key in entry:
        if key not in _OUTAGE_KEYS:
            raise FaultInjectionError(
                f"unknown key {key!r} in faults outage (known: {sorted(_OUTAGE_KEYS)})"
            )
    try:
        at = float(entry["at"])
    except KeyError:
        raise FaultInjectionError(f"outage entry missing 'at': {entry}") from None
    recover = entry.get("recover")
    return RailOutage(
        at=at,
        nic=entry.get("nic"),
        network=entry.get("network"),
        recover=float(recover) if recover is not None else None,
    )
