"""Common machinery for middleware workload apps."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.sim.process import Future, Process, all_of
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster

__all__ = ["AppBase", "MiddlewareApp", "CollectiveApp"]


class AppBase(abc.ABC):
    """Process management shared by all workload apps.

    Subclasses implement :meth:`_start`: open **every** flow the app
    will ever use, in a fixed order, then :meth:`spawn` its processes,
    each with the node it belongs to.  A process runs only where its
    node has an engine — everywhere on a simulated cluster, on one
    peer of a live mesh — while the flows are opened on every peer, so
    all of them number the flows alike.  ``install`` wires the app into
    a cluster and is directly usable as a ``run_session`` workload
    installer.  ``done`` resolves when every process started here
    finished.  An app built without a ``name`` is named at install
    time from the run's ``sim.ids``.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self.done: Future = Future()
        self._cluster: "Cluster | None" = None
        self._spawn_requests = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self, cluster: "Cluster") -> "AppBase":
        """Attach the app to a cluster and start its processes."""
        self._attach(cluster)
        self._start(cluster)
        if not self._spawn_requests:
            raise ConfigurationError(f"app {self.name!r} started no processes")
        all_of([p.finished for p in self._processes]).add_callback(
            lambda _value: self.done.resolve(None)
        )
        return self

    def _attach(self, cluster: "Cluster") -> None:
        if self._cluster is not None:
            raise ConfigurationError(f"app {self.name!r} installed twice")
        self._cluster = cluster
        if self.name is None:
            self.name = f"{type(self).__name__}{cluster.sim.ids.app()}"

    @abc.abstractmethod
    def _start(self, cluster: "Cluster") -> None:
        """Open flows and spawn processes (subclass hook)."""

    def spawn(self, node: str, generator, label: str = "proc") -> None:
        """Start one cooperative process of this app, if ``node`` lives here.

        ``node`` is the node the process acts for.  Where that node has
        no engine (another peer's node on the live plane) the generator
        is dropped unstarted: its half of the workload runs elsewhere.
        """
        assert self._cluster is not None
        self._spawn_requests += 1
        if node in self._cluster.engines:
            self._processes.append(
                Process(self._cluster.sim, generator, name=f"{self.name}.{label}")
            )

    # ------------------------------------------------------------------
    # conveniences for subclasses
    # ------------------------------------------------------------------
    def rng(self, label: str):
        """A deterministic RNG stream namespaced to this app."""
        assert self._cluster is not None
        return self._cluster.stream(f"{self.name}.{label}")


class MiddlewareApp(AppBase):
    """A workload between exactly two nodes (one middleware instance)."""

    def __init__(self, src: str, dst: str, name: str | None = None) -> None:
        if src == dst:
            raise ConfigurationError(f"app endpoints must differ, got {src!r} twice")
        super().__init__(name)
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r} {self.src}->{self.dst})"


class CollectiveApp(AppBase):
    """A workload spanning a group of nodes (collective operations)."""

    def __init__(self, nodes: Sequence[str], name: str | None = None) -> None:
        nodes = list(nodes)
        if len(nodes) < 2:
            raise ConfigurationError(
                f"a collective needs >= 2 nodes, got {len(nodes)}"
            )
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError(f"duplicate nodes in group: {nodes}")
        super().__init__(name)
        self.nodes = nodes

    @property
    def size(self) -> int:
        """Number of participating nodes."""
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r} over {self.nodes})"
