"""Decision kernel: flat-array candidate build and scoring.

The array walk here is the only packet decision in ``src/``, for every
strategy and driver.  The entry-object walk it replaced is the test
oracle (``tests/core/oracle.py``) the equivalence tests compare it to.

Design (ROADMAP "10-100x the decision kernel with array-based
batching"):

* :class:`PendingArrays` mirrors a channel queue's pending window as
  parallel flat lists (``remaining``, ``submit_time``, ``flow_id``,
  ``dst``, ``aggregatable``, ``state``, …).  One attribute-chasing walk
  per queue mutation builds the mirror; every candidate evaluation after
  that touches only list slots and local variables.
* :class:`~repro.drivers.capabilities.DriverConstants`
  (``driver.constants``) pre-resolves everything the inner loop used
  to ask the driver per candidate — ``max_aggregate_size``, the
  rendezvous threshold, gather limits (Morpheus-style specialization:
  constants folded out of the loop; no run-time guard, because a driver
  that could break the fold is rejected when defined).
* :func:`build_eager_arrays` is the greedy packet builder (rules in
  :mod:`repro.core.strategies._builder`) over the arrays; instead of a
  :class:`~repro.core.plan.TransferPlan` it returns a :class:`SeedBuild`
  carrying *prefix* aggregates (payload sums, oldest submit time), so
  every narrower aggregation width of the same seed is priced by
  :meth:`repro.core.cost.CostModel.terms` — the one price, which
  ``CostModel.score`` reduces a built plan to — without being
  materialized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.plan import PlanItem, TransferPlan
from repro.madeleine.message import PackMode
from repro.madeleine.submit import EntryKind, EntryState, SubmitEntry
from repro.network.wire import PacketKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.drivers.base import Driver
    from repro.drivers.capabilities import DriverConstants

__all__ = [
    "PendingArrays",
    "SeedBuild",
    "build_eager_arrays",
    "probe_uniform_seeds",
    "oversized_waiting_indices",
]

#: ``PendingArrays.state`` codes (only pending states appear in a
#: queue's snapshot, so two codes suffice).
STATE_WAITING = 0
STATE_RDV_READY = 1

_CONTROL_PACKET_KIND = {
    EntryKind.RDV_REQ: PacketKind.RDV_REQ,
    EntryKind.RDV_ACK: PacketKind.RDV_ACK,
}

_INF = float("inf")
_DATA = EntryKind.DATA
_RDV_READY = EntryState.RDV_READY
_SAFER = PackMode.SAFER
_LATER = PackMode.LATER


class PendingArrays:
    """Flat parallel mirror of one queue's pending window.

    Built from a version-stamped snapshot in arrival order; coherent for
    exactly as long as the queue's version does not move (the queue
    caches one instance per version, see
    :meth:`repro.core.waiting.ChannelQueue.pending_arrays`).
    """

    __slots__ = (
        "entries",
        "n",
        "remaining",
        "submit_time",
        "flow_id",
        "dst",
        "aggregatable",
        "state",
        "is_control",
        "deferrable",
        "no_rdv",
        "uniform_dst",
        "max_remaining",
        "flow_rank",
        "n_seed_flows",
    )

    def __init__(self, entry_list: list[SubmitEntry]) -> None:
        # Column extraction as comprehensions: each field is one C-speed
        # walk instead of one interpreted loop doing nine appends.
        n = len(entry_list)
        self.entries = entry_list
        self.n = n
        self.remaining = remaining = [e.remaining for e in entry_list]
        self.submit_time = [e.submit_time for e in entry_list]
        self.flow_id = [e.flow_id for e in entry_list]
        self.dst = dsts = [e.dst for e in entry_list]
        states = [e._state for e in entry_list]
        self.state = [
            STATE_RDV_READY if s is _RDV_READY else STATE_WAITING for s in states
        ]
        self.is_control = is_control = [e.kind is not _DATA for e in entry_list]
        # ``and`` short-circuits before ``fragment`` on control entries
        # (their fragment is None); member identity instead of ``.value``
        # dodges the enum DynamicClassAttribute descriptor.
        self.aggregatable = aggregatable = [
            not c and s is not _RDV_READY and e.fragment.mode is not _SAFER
            for c, s, e in zip(is_control, states, entry_list)
        ]
        self.deferrable = deferrable = [
            not c and e.fragment.mode is _LATER
            for c, e in zip(is_control, entry_list)
        ]
        self.no_rdv = [
            not c and bool(e.meta.get("no_rdv"))
            for c, e in zip(is_control, entry_list)
        ]
        # Uniform-window screen for the specialized build loop: every
        # entry aggregatable (implies data + WAITING + not SAFER),
        # nothing deferrable, one destination.
        self.uniform_dst = None
        self.flow_rank: "list[int] | None" = None
        self.n_seed_flows = 0
        if n and all(aggregatable) and not any(deferrable):
            d0 = dsts[0]
            if all(d == d0 for d in dsts):
                self.uniform_dst = d0
                # First-occurrence rank of each entry's flow: the greedy
                # build from seed *s* blocks exactly the window's first
                # *s* distinct flows, so ``flow_rank[i] >= s`` is the
                # whole eligibility test (see probe_uniform_seeds).
                rank_of: dict[int, int] = {}
                self.flow_rank = [
                    rank_of.setdefault(f, len(rank_of)) for f in self.flow_id
                ]
                self.n_seed_flows = len(rank_of)
        self.max_remaining = max(remaining) if n else 0


class SeedBuild:
    """The widest legal greedy build from one seed, with prefix aggregates.

    ``payload_prefix[k-1]`` / ``oldest_prefix[k-1]`` are the payload sum
    and oldest submit time of the first ``k`` items — everything
    :meth:`~repro.core.cost.CostModel.terms` needs to price a
    ``k``-item truncation without constructing it.  :meth:`plan`
    materializes one width on demand (only ever called for the winning
    candidate).
    """

    __slots__ = (
        "driver",
        "channel_id",
        "dst",
        "entries",
        "takes",
        "payload_prefix",
        "oldest_prefix",
    )

    def __init__(
        self,
        driver: "Driver",
        channel_id: int,
        dst: str,
        entries: list[SubmitEntry],
        takes: list[int],
        payload_prefix: list[int],
        oldest_prefix: list[float],
    ) -> None:
        self.driver = driver
        self.channel_id = channel_id
        self.dst = dst
        self.entries = entries
        self.takes = takes
        self.payload_prefix = payload_prefix
        self.oldest_prefix = oldest_prefix

    @property
    def n_items(self) -> int:
        return len(self.entries)

    def plan(self, n_items: int) -> TransferPlan:
        """Materialize the ``n_items``-wide prefix as a dispatchable plan."""
        entries = self.entries
        takes = self.takes
        items = [PlanItem(entries[i], takes[i]) for i in range(n_items)]
        return TransferPlan(
            self.driver, PacketKind.EAGER, self.dst, self.channel_id, items
        )


def build_eager_arrays(
    arrays: PendingArrays,
    consts: DriverConstants,
    engine: Any,
    driver: "Driver",
    channel_id: int,
    max_items: int,
    skip_seeds: int,
    allow_park: bool,
    stripe_chunk: "int | None",
    multirail: bool,
    same_message_only: bool = False,
    protocol_only: bool = False,
) -> "TransferPlan | SeedBuild | None":
    """The greedy packet walk behind ``strategies._builder.build_from_queue``.

    Returns a finished :class:`TransferPlan` for packets that travel
    alone (rendezvous bulk, control, SAFER fragments), a
    :class:`SeedBuild` for an aggregatable eager prefix family, or
    ``None`` when nothing is dispatchable.  Semantics — walk order,
    flow blocking, seed skipping, parking, chunking, the two legacy
    restrictions — are those of the oracle object walk; the equivalence
    tests in ``tests/core/test_kernel_equivalence.py`` hold the two
    together.
    """
    n = arrays.n
    if n == 0:
        return None
    entries = arrays.entries
    remaining = arrays.remaining
    submit_time = arrays.submit_time
    flow_id = arrays.flow_id
    reaches = consts.reaches
    budget = consts.max_aggregate_size
    rdv_threshold = consts.rdv_threshold

    # Uniform window (every entry an aggregatable same-destination
    # eager candidate, nothing oversized): the walk collapses to flow
    # blocking plus budget packing — the steady-state shape of a loaded
    # queue, and the loop the candidate search spends its time in.
    # Its number: +182 / +96 py_ops_per_msg (sim_mixed / sim_storm) without it.
    dst0 = arrays.uniform_dst
    if (
        dst0 is not None
        and (rdv_threshold is None or arrays.max_remaining <= rdv_threshold)
        and not same_message_only
        and not protocol_only
    ):
        if not reaches(dst0):
            return None
        blocked_set: set[int] = set()
        i = 0
        skipped = 0
        while skipped < skip_seeds and i < n:
            if flow_id[i] not in blocked_set:
                blocked_set.add(flow_id[i])
                skipped += 1
            i += 1
        idx2: list[int] = []
        takes2: list[int] = []
        payload2: list[int] = []
        oldest2: list[float] = []
        taken2 = 0
        count = 0
        oldest_t = _INF
        while i < n:
            fid = flow_id[i]
            if fid in blocked_set:
                i += 1
                continue
            r = remaining[i]
            space = budget - taken2
            if r <= space:
                take = r
            elif not count:
                # Chunk an over-budget entry (drivers without rendezvous).
                take = r if r < budget else budget
            else:
                blocked_set.add(fid)
                i += 1
                continue
            idx2.append(i)
            takes2.append(take)
            taken2 += take
            st = submit_time[i]
            if st < oldest_t:
                oldest_t = st
            payload2.append(taken2)
            oldest2.append(oldest_t)
            count += 1
            if count >= max_items or taken2 >= budget:
                break
            i += 1
        if not count:
            return None
        return SeedBuild(
            driver,
            channel_id,
            dst0,
            [entries[j] for j in idx2],
            takes2,
            payload2,
            oldest2,
        )

    dsts = arrays.dst
    aggregatable = arrays.aggregatable
    state = arrays.state
    is_control = arrays.is_control
    deferrable = arrays.deferrable
    no_rdv = arrays.no_rdv

    reach_ok: dict[str, bool] = {}
    blocked: set[int] = set()
    idx: list[int] = []
    takes: list[int] = []
    payload_prefix: list[int] = []
    oldest_prefix: list[float] = []
    taken = 0
    oldest = _INF
    dst: "str | None" = None
    first_message = None
    seeds_skipped = 0

    for i in range(n):
        fid = flow_id[i]
        if fid >= 0 and fid in blocked:
            continue
        d = dsts[i]
        ok = reach_ok.get(d)
        if ok is None:
            ok = reaches(d)
            reach_ok[d] = ok
        if not ok:
            if fid >= 0 and not deferrable[i]:
                blocked.add(fid)
            continue
        if not idx and seeds_skipped < skip_seeds:
            seeds_skipped += 1
            if fid >= 0 and not deferrable[i]:
                blocked.add(fid)
            continue

        # Rendezvous bulk: always alone, exempt from FIFO blocking.
        if state[i] == STATE_RDV_READY:
            if idx:
                continue
            take = remaining[i]
            if stripe_chunk is not None and multirail and take > stripe_chunk:
                take = stripe_chunk
            return TransferPlan(
                driver,
                PacketKind.RDV_DATA,
                d,
                channel_id,
                [PlanItem(entries[i], take)],
            )

        # Engine-generated control traffic: always alone, no flow.
        if is_control[i]:
            if idx:
                continue
            entry = entries[i]
            return TransferPlan(
                driver,
                _CONTROL_PACKET_KIND[entry.kind],
                d,
                channel_id,
                [PlanItem(entry, remaining[i])],
                meta=dict(entry.meta),
            )

        if protocol_only:
            # Plain waiting data stays queued (stalled legacy channel);
            # it is not a reordering, so it must not block later picks.
            continue

        # Oversized data negotiates a rendezvous first (unless no_rdv).
        if rdv_threshold is not None and remaining[i] > rdv_threshold and not no_rdv[i]:
            if allow_park:
                engine.park_for_rendezvous(entries[i], channel_id)
            elif fid >= 0 and not deferrable[i]:
                blocked.add(fid)
            continue

        # SAFER fragments travel alone.
        if not aggregatable[i]:
            if idx:
                if fid >= 0 and not deferrable[i]:
                    blocked.add(fid)
                continue
            return TransferPlan(
                driver,
                PacketKind.EAGER,
                d,
                channel_id,
                [PlanItem(entries[i], min(remaining[i], budget))],
            )

        if dst is None:
            dst = d
            if same_message_only:
                first_message = entries[i].message
        elif d != dst or (
            same_message_only and entries[i].message is not first_message
        ):
            if fid >= 0 and not deferrable[i]:
                blocked.add(fid)
            continue

        space = budget - taken
        r = remaining[i]
        if r <= space:
            take = r
        elif not idx:
            # Chunk an over-budget entry (drivers without rendezvous).
            take = r if r < budget else budget
        else:
            if fid >= 0 and not deferrable[i]:
                blocked.add(fid)
            continue
        idx.append(i)
        takes.append(take)
        taken += take
        st = submit_time[i]
        if st < oldest:
            oldest = st
        payload_prefix.append(taken)
        oldest_prefix.append(oldest)
        if len(idx) >= max_items or taken >= budget:
            break

    if idx:
        assert dst is not None
        return SeedBuild(
            driver,
            channel_id,
            dst,
            [entries[i] for i in idx],
            takes,
            payload_prefix,
            oldest_prefix,
        )
    return None


def probe_uniform_seeds(
    arrays: PendingArrays,
    consts: DriverConstants,
    max_items: int,
    widths: "tuple[int, ...]",
    max_seeds: int,
) -> "list[tuple[int, int, float, list[tuple[int, int, float]]]] | None":
    """Score-ready aggregates for every viable seed of a uniform window.

    The bounded search's steady-state inner loop.  For a uniform window
    (every entry an aggregatable same-destination eager candidate, see
    :class:`PendingArrays`), the greedy build from seed *s* takes, in
    arrival order, exactly the entries whose flow is **not** among the
    window's first *s* distinct flows — i.e. ``flow_rank[i] >= s`` —
    subject only to the budget/width packing rules.  One tight pass per
    seed therefore yields everything
    :meth:`~repro.core.cost.CostModel.terms` needs, without per-seed
    builder calls, index lists, or :class:`SeedBuild` objects; the
    winning seed alone is re-built for materialization.

    Builds exist for seeds ``0 .. n_seed_flows - 1`` and for no deeper
    seed; the caller replicates the reference walk's exhausted-queue
    probe accounting itself.

    Returns ``None`` when the window is not uniform-eligible (caller
    falls back to :func:`build_eager_arrays` per seed); ``[]`` when the
    destination is unreachable (no seed can build); otherwise a list
    over seeds of ``(base_items, payload, oldest_submit, snaps)`` where
    ``snaps`` holds the same triple at each narrower width cut of
    ``widths``.  At most ``max_seeds`` entries are computed — each seed
    costs the search at least one evaluation, so deeper stats could
    never be consumed.
    """
    dst0 = arrays.uniform_dst
    if dst0 is None:
        return None
    rdv_threshold = consts.rdv_threshold
    if rdv_threshold is not None and arrays.max_remaining > rdv_threshold:
        return None
    if not consts.reaches(dst0):
        return []
    n = arrays.n
    flow_rank = arrays.flow_rank
    flow_id = arrays.flow_id
    remaining = arrays.remaining
    submit_time = arrays.submit_time
    budget = consts.max_aggregate_size
    # Width cuts below the full build are snapshotted mid-walk.
    targets = sorted(w for w in set(widths) if w < max_items)
    n_targets = len(targets)
    n_seeds = arrays.n_seed_flows
    if max_seeds < n_seeds:
        n_seeds = max_seeds
    out: list[tuple[int, int, float, list[tuple[int, int, float]]]] = []
    for s in range(n_seeds):
        taken = 0
        count = 0
        oldest = _INF
        snaps: list[tuple[int, int, float]] = []
        ti = 0
        blocked: "set[int] | None" = None  # flows blocked on budget overflow
        for i in range(n):
            if flow_rank[i] < s:
                continue  # a skipped seed's flow
            if blocked is not None and flow_id[i] in blocked:
                continue
            r = remaining[i]
            space = budget - taken
            if r <= space:
                take = r
            elif not count:
                # Chunk an over-budget entry (drivers without rendezvous).
                take = r if r < budget else budget
            else:
                if blocked is None:
                    blocked = set()
                blocked.add(flow_id[i])
                continue
            taken += take
            st = submit_time[i]
            if st < oldest:
                oldest = st
            count += 1
            if ti < n_targets and count == targets[ti]:
                snaps.append((count, taken, oldest))
                ti += 1
            if count >= max_items or taken >= budget:
                break
        out.append((count, taken, oldest, snaps))
    return out


def oversized_waiting_indices(
    arrays: PendingArrays, consts: DriverConstants
) -> list[int]:
    """Indices of plain WAITING data entries that must park for rendezvous.

    The predicate of the search's up-front parking sweep; the
    caller performs the actual (side-effectful) parking so this function
    stays pure.
    """
    rdv_threshold = consts.rdv_threshold
    if rdv_threshold is None:
        return []
    if arrays.max_remaining <= rdv_threshold:
        # One compare screens out the common case (nothing in the
        # window is anywhere near the rendezvous threshold).
        return []
    out: list[int] = []
    reaches = consts.reaches
    reach_ok: dict[str, bool] = {}
    remaining = arrays.remaining
    state = arrays.state
    is_control = arrays.is_control
    no_rdv = arrays.no_rdv
    dsts = arrays.dst
    for i in range(arrays.n):
        if (
            not is_control[i]
            and state[i] == STATE_WAITING
            and not no_rdv[i]
            and remaining[i] > rdv_threshold
        ):
            d = dsts[i]
            ok = reach_ok.get(d)
            if ok is None:
                ok = reaches(d)
                reach_ok[d] = ok
            if ok:
                out.append(i)
    return out
