"""Collective operations built on the packing API.

The regular MPI-style communication schemes Madeleine has always served
(paper §2): a binomial-tree broadcast, a dissemination barrier, a
recursive-doubling allreduce, and a 1-D ring halo exchange.  Each
collective is implemented purely on flows + inboxes, so it exercises
the engine exactly like a real middleware's collective layer: many
simultaneous flows between many node pairs, mixing small control-sized
steps with payload transfers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.middleware.base import CollectiveApp
from repro.network.virtual import TrafficClass
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["BroadcastApp", "BarrierApp", "AllReduceApp", "HaloExchangeApp"]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class _PairwiseFlows:
    """A flow + inbox for every ordered pair of group members.

    All of them are opened here, rank-major, before any process runs:
    a flow's id is its place in the run's opening order, so which
    pairs exist must not depend on which rank happened to send first
    (or, on the live plane, on which ranks this peer executes).
    """

    def __init__(self, cluster: "Cluster", nodes: list[str], tag: str, traffic_class):
        self._cluster = cluster
        self._nodes = nodes
        self._flows: dict[tuple[int, int], object] = {}
        self._inboxes: dict[tuple[int, int], object] = {}
        for src, src_node in enumerate(nodes):
            for dst, dst_node in enumerate(nodes):
                if src != dst:
                    flow = cluster.api(src_node).open_flow(
                        dst_node, f"{tag}.{src}->{dst}", traffic_class
                    )
                    self._flows[src, dst] = flow
                    self._inboxes[src, dst] = cluster.api(dst_node).inbox(flow)

    def send(self, src: int, dst: int, size: int, header: int = 8):
        return self._cluster.api(self._nodes[src]).send(
            self._flows[src, dst], size, header_size=header
        )

    def recv(self, src: int, dst: int):
        return self._inboxes[src, dst].get()


class BroadcastApp(CollectiveApp):
    """Binomial-tree broadcast from rank 0, repeated ``rounds`` times.

    Records the completion time of each broadcast (root send → last
    rank fully received) in :attr:`durations`.
    """

    def __init__(
        self, nodes: list[str], *, size: int = 4096, rounds: int = 1, name: str | None = None
    ):
        super().__init__(nodes, name)
        if rounds < 1 or size < 1:
            raise ConfigurationError("rounds and size must be >= 1")
        self.payload = size
        self.rounds = rounds
        #: Per-broadcast completion durations.
        self.durations: list[float] = []

    def _children(self, rank: int) -> list[int]:
        """Binomial-tree children of a rank, largest subtree first.

        Sending to the deepest subtree first is the classic single-port
        optimization: the furthest forwarding chain starts as early as
        possible.
        """
        children = []
        mask = 1
        while mask < self.size:
            if rank & (mask - 1) == 0 and rank | mask != rank:
                child = rank | mask
                if child < self.size:
                    children.append(child)
            if rank & mask:
                break
            mask <<= 1
        children.reverse()
        return children

    def _start(self, cluster: "Cluster") -> None:
        pairs = _PairwiseFlows(cluster, self.nodes, self.name, TrafficClass.DEFAULT)
        sim = cluster.sim
        n = self.size

        # Rounds are delimited by tiny acks back to the root: a
        # broadcast is complete when the root has heard from every rank.
        def root_proc():
            for _ in range(self.rounds):
                start = sim.now
                for child in self._children(0):
                    pairs.send(0, child, self.payload)
                for rank in range(1, n):
                    yield pairs.recv(rank, 0)
                self.durations.append(sim.now - start)

        def leaf_proc(rank: int):
            parent = self._parent(rank)
            for _ in range(self.rounds):
                yield pairs.recv(parent, rank)
                for child in self._children(rank):
                    pairs.send(rank, child, self.payload)
                pairs.send(rank, 0, 8, header=0)  # ack

        self.spawn(self.nodes[0], root_proc(), "rank0")
        for rank in range(1, n):
            self.spawn(self.nodes[rank], leaf_proc(rank), f"rank{rank}")

    def _parent(self, rank: int) -> int:
        """Binomial-tree parent: clear the lowest set bit."""
        return rank & (rank - 1)


class BarrierApp(CollectiveApp):
    """Dissemination barrier, repeated ``rounds`` times.

    In step k every rank sends a token to ``(rank + 2^k) mod n`` and
    waits for one from ``(rank - 2^k) mod n``; after ceil(log2 n) steps
    all ranks have transitively heard from everyone.
    """

    def __init__(self, nodes: list[str], *, rounds: int = 1, name: str | None = None):
        super().__init__(nodes, name)
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        self.rounds = rounds
        #: Per-barrier durations measured at rank 0.
        self.durations: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        pairs = _PairwiseFlows(cluster, self.nodes, self.name, TrafficClass.CONTROL)
        sim = cluster.sim
        n = self.size
        steps = []
        k = 1
        while k < n:
            steps.append(k)
            k <<= 1

        def rank_proc(rank: int):
            for _ in range(self.rounds):
                start = sim.now
                for step in steps:
                    pairs.send(rank, (rank + step) % n, 8, header=0)
                    yield pairs.recv((rank - step) % n, rank)
                if rank == 0:
                    self.durations.append(sim.now - start)

        for rank in range(n):
            self.spawn(self.nodes[rank], rank_proc(rank), f"rank{rank}")


class AllReduceApp(CollectiveApp):
    """Recursive-doubling allreduce (power-of-two groups only).

    Each of the log2(n) steps exchanges the full vector with the
    partner at distance 2^k — the classic latency-optimal scheme for
    short vectors.
    """

    def __init__(
        self, nodes: list[str], *, size: int = 4096, rounds: int = 1, name: str | None = None
    ):
        super().__init__(nodes, name)
        if not _is_power_of_two(len(nodes)):
            raise ConfigurationError(
                f"recursive doubling needs a power-of-two group, got {len(nodes)}"
            )
        if rounds < 1 or size < 1:
            raise ConfigurationError("rounds and size must be >= 1")
        self.payload = size
        self.rounds = rounds
        #: Per-allreduce durations measured at rank 0.
        self.durations: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        pairs = _PairwiseFlows(cluster, self.nodes, self.name, TrafficClass.DEFAULT)
        sim = cluster.sim
        n = self.size

        def rank_proc(rank: int):
            for _ in range(self.rounds):
                start = sim.now
                distance = 1
                while distance < n:
                    partner = rank ^ distance
                    pairs.send(rank, partner, self.payload)
                    yield pairs.recv(partner, rank)
                    distance <<= 1
                if rank == 0:
                    self.durations.append(sim.now - start)

        for rank in range(n):
            self.spawn(self.nodes[rank], rank_proc(rank), f"rank{rank}")


class HaloExchangeApp(CollectiveApp):
    """1-D ring halo exchange with a compute phase per iteration.

    The canonical stencil pattern: every iteration, each rank sends its
    halo to both neighbours, waits for both halos, then "computes" for
    ``compute_time``.  Records the per-iteration duration at rank 0.
    """

    def __init__(
        self,
        nodes: list[str],
        *,
        halo_size: int = 8192,
        iterations: int = 10,
        compute_time: float = 0.0,
        name: str | None = None,
    ):
        super().__init__(nodes, name)
        if iterations < 1 or halo_size < 1:
            raise ConfigurationError("iterations and halo_size must be >= 1")
        if compute_time < 0:
            raise ConfigurationError("compute_time must be >= 0")
        self.halo_size = halo_size
        self.iterations = iterations
        self.compute_time = compute_time
        #: Per-iteration durations at rank 0.
        self.durations: list[float] = []

    def _start(self, cluster: "Cluster") -> None:
        pairs = _PairwiseFlows(cluster, self.nodes, self.name, TrafficClass.DEFAULT)
        sim = cluster.sim
        n = self.size

        def rank_proc(rank: int):
            left, right = (rank - 1) % n, (rank + 1) % n
            for _ in range(self.iterations):
                start = sim.now
                pairs.send(rank, left, self.halo_size)
                pairs.send(rank, right, self.halo_size)
                yield pairs.recv(left, rank)
                yield pairs.recv(right, rank)
                if self.compute_time > 0:
                    yield self.compute_time
                if rank == 0:
                    self.durations.append(sim.now - start)

        for rank in range(n):
            self.spawn(self.nodes[rank], rank_proc(rank), f"rank{rank}")
