"""Transfer plans: what a strategy hands to the engine for dispatch.

A :class:`TransferPlan` is the blueprint of exactly one NIC request —
one wire packet on one driver.  A plan combining several
:class:`PlanItem` entries *is* the paper's aggregation: each item
contributes a slice of one waiting-list entry to the packet.

Strategies may instead return :class:`Hold` ("wait a little — a better
aggregation may form", the Nagle device of §3) or ``None`` ("nothing
sensible to send on this driver right now").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.drivers.base import Driver
from repro.madeleine.submit import SubmitEntry
from repro.network.wire import PacketKind
from repro.util.errors import ConfigurationError

__all__ = ["PlanItem", "TransferPlan", "Hold"]


@dataclass(frozen=True, slots=True)
class PlanItem:
    """One entry slice included in a plan.

    ``take`` is how many of the entry's remaining bytes this packet
    carries — less than ``entry.remaining`` when a large rendezvous body
    is striped across rails.
    """

    entry: SubmitEntry
    take: int

    def __post_init__(self) -> None:
        if self.take <= 0 or self.take > self.entry.remaining:
            raise ConfigurationError(
                f"plan item takes {self.take} B of {self.entry!r} "
                f"with {self.entry.remaining} B remaining"
            )


@dataclass(slots=True)
class TransferPlan:
    """Blueprint of one wire packet on one driver."""

    driver: Driver
    kind: PacketKind
    dst: str
    channel_id: int
    items: list[PlanItem]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.items:
            raise ConfigurationError("a transfer plan needs at least one item")
        for item in self.items:
            if item.entry.dst != self.dst:
                raise ConfigurationError(
                    f"{item.entry!r} targets {item.entry.dst!r}, "
                    f"plan targets {self.dst!r}"
                )

    @property
    def payload_bytes(self) -> int:
        """Data bytes this packet will carry (control plans carry none)."""
        if self.kind.is_control:
            return 0
        return sum(item.take for item in self.items)

    @property
    def entries(self) -> list[SubmitEntry]:
        """The entries contributing to this plan, in wire order."""
        return [item.entry for item in self.items]

    @property
    def segment_count(self) -> int:
        """Number of payload segments the packet will contain."""
        return 0 if self.kind.is_control else len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferPlan({self.kind.value} ->{self.dst} ch={self.channel_id} "
            f"items={len(self.items)} bytes={self.payload_bytes} on {self.driver.name})"
        )


@dataclass(frozen=True, slots=True)
class Hold:
    """Strategy decision: send nothing now, re-evaluate at ``wake_at``.

    A standing decision: the engine may answer submit activations from
    a Hold until its release condition — ``now`` reaches ``wake_at`` or
    the backlog reaches ``release_pending`` entries or ``release_bytes``
    bytes — and it re-asks on every other activation.  Set both no higher
    than the backlog at which entries appended to the waiting lists could
    change the decision; the defaults mean "always re-ask".
    """

    wake_at: float
    release_bytes: float = 0
    release_pending: float = 0
