"""Declarative cluster assembly.

``Cluster`` wires the full stack of Figure 1 for every node:

* a :class:`~repro.network.fabric.Fabric` with one or more networks
  (possibly of different technologies — heterogeneous multirail);
* per node: NICs, drivers (from the registry), a communication engine
  (optimizing or legacy), a reassembler, and a
  :class:`~repro.madeleine.api.MadAPI` facade;
* a shared :class:`~repro.runtime.metrics.MetricsCollector` and seeded
  RNG registry.

Example
-------
::

    cluster = Cluster(n_nodes=2, networks=[("mx", 2), ("elan", 1)],
                      engine="optimizing", strategy="aggregate")
    api0 = cluster.api("n0")
    flow = api0.open_flow("n1")
    api0.send(flow, 4096)
    cluster.run_until_idle()
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.baseline.legacy import LegacyEngine
from repro.core.channels import ChannelPolicy, PooledChannels
from repro.drivers.capabilities import DriverCapabilities
from repro.core.config import EngineConfig
from repro.core.engine import CommEngineBase, OptimizingEngine
from repro.core.strategies.base import Strategy, make_strategy
from repro.drivers.registry import DRIVER_TYPES, make_driver
from repro.madeleine.api import MadAPI
from repro.madeleine.rx import MessageReassembler
from repro.network.fabric import Fabric, Node
from repro.network.faults import FaultPlane
from repro.network.reliable import ReliabilityConfig, ReliableTransport
from repro.network.technologies import TECHNOLOGIES
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.runtime.metrics import MetricsCollector
from repro.tuner import ClusterTuner, TunerConfig
from repro.sim.engine import Simulator
from repro.util.errors import ConfigurationError
from repro.util.rng import SeedSequenceRegistry
from repro.util.tracing import Tracer

__all__ = ["Cluster", "build_node_stack", "check_topology", "install_tuner"]

#: Engine kind → constructor.
_ENGINE_KINDS = {"optimizing": OptimizingEngine, "legacy": LegacyEngine}


def check_topology(
    n_nodes: int, networks: Sequence[tuple[str, int]], engine: str
) -> None:
    """Reject a cluster shape no plane can build (the live coordinator
    calls this before it forks, so both planes refuse in the same words)."""
    if n_nodes < 2:
        raise ConfigurationError(f"a cluster needs >= 2 nodes, got {n_nodes}")
    if engine not in _ENGINE_KINDS:
        raise ConfigurationError(
            f"engine must be one of {sorted(_ENGINE_KINDS)}, got {engine!r}"
        )
    if not networks:
        raise ConfigurationError("a cluster needs at least one network")
    for tech, nics_per_node in networks:
        if tech not in TECHNOLOGIES:
            raise ConfigurationError(
                f"unknown technology {tech!r} (known: {sorted(TECHNOLOGIES)})"
            )
        if nics_per_node < 1:
            raise ConfigurationError(
                f"nics_per_node must be >= 1, got {nics_per_node}"
            )


def build_node_stack(
    sim: Any,
    node: Node,
    *,
    engine: str,
    strategy: str | Callable[[], Strategy] | None,
    policy: Callable[[], ChannelPolicy] | None,
    config: EngineConfig | None,
    driver_caps: dict[str, DriverCapabilities] | None = None,
) -> tuple[CommEngineBase, MessageReassembler, MadAPI]:
    """Everything above the NICs of one node, on either plane.

    ``node`` already carries its NICs (simulated, or the live plane's
    socket NICs) and ``sim`` is the clock they run on (a ``Simulator``
    or a ``LiveClock``): the transfer layer is the only thing the two
    planes build differently.  The other parameters mean what they mean
    on :class:`Cluster`.
    """
    drivers = []
    for nic in node.nics:
        if driver_caps is not None and nic.link.name in driver_caps:
            drivers.append(DRIVER_TYPES[nic.link.name](nic, driver_caps[nic.link.name]))
        else:
            drivers.append(make_driver(nic))

    kwargs: dict = {"config": config}
    if engine == "optimizing":
        if isinstance(strategy, str):
            kwargs["strategy"] = make_strategy(strategy)
        else:
            kwargs["strategy"] = strategy() if strategy is not None else None
        kwargs["policy"] = policy() if policy is not None else PooledChannels()
    elif policy is not None:
        kwargs["policy"] = policy()
    comm_engine = _ENGINE_KINDS[engine](sim, node, drivers, **kwargs)

    reassembler = MessageReassembler(sim, node.name)
    node.receiver.register_default_sink(reassembler.sink)
    return comm_engine, reassembler, MadAPI(node.name, comm_engine, reassembler)


def install_tuner(
    cluster: Any, tuner: "Mapping | TunerConfig | None"
) -> ClusterTuner | None:
    """Install the rail selectors a ``tuner`` block asks for (``None``
    installs nothing).  Goes after the observability plane: the
    selectors read the tail view it hands the engines."""
    if tuner is None:
        return None
    config = tuner if isinstance(tuner, TunerConfig) else TunerConfig.from_spec(tuner)
    cluster_tuner = ClusterTuner(config)
    cluster_tuner.install(cluster)
    return cluster_tuner


class Cluster:
    """A fully wired simulated cluster.

    Parameters
    ----------
    n_nodes:
        Number of nodes, named ``n0`` … ``n{k-1}``.
    networks:
        Sequence of ``(technology, nics_per_node)`` pairs; every node is
        attached to every network.  Technologies come from
        :data:`repro.network.technologies.TECHNOLOGIES`.
    engine:
        ``"optimizing"`` (the paper's engine) or ``"legacy"`` (the
        deterministic Madeleine-3 baseline).
    strategy:
        Strategy name (from the registry), factory callable, or ``None``
        for the engine's default.  Ignored by the legacy engine, which
        is its own strategy.
    policy:
        Channel-policy factory (one fresh instance per node); ``None``
        uses the engine default.
    config:
        A shared :class:`~repro.core.config.EngineConfig`.
    seed:
        Session seed for all random streams.
    tracer:
        Optional tracer shared by every component.
    driver_caps:
        Optional per-technology :class:`DriverCapabilities` overrides
        (e.g. ``{"mx": replace(MX_CAPABILITIES, supports_gather=False)}``)
        for capability ablations.
    faults:
        Optional fault model: a ready-made
        :class:`~repro.network.faults.FaultPlane`, or a mapping in the
        scenario ``"faults"`` schema (``drop``/``corrupt``/``duplicate``
        /``jitter``, ``per_network``, ``per_nic``, ``outages``, ``seed``,
        plus an optional ``"reliability"`` sub-block with
        ``max_retries``/``rto``/``backoff``/``ack_delay``).  When set,
        every NIC routes through a
        :class:`~repro.network.reliable.ReliableTransport` and scheduled
        rail outages are installed.  ``None`` (default) keeps the
        lossless fabric and its exact packet timings.
    observability:
        Optional observability plane: a ready-made (uninstalled)
        :class:`~repro.obs.plane.ObservabilityPlane`, an
        :class:`~repro.obs.plane.ObservabilityConfig`, or a mapping in
        the scenario ``"observability"`` schema (``sample_interval``/
        ``ring_buffer``/``trace``).  When set, a trace sink and the
        periodic sampler are attached as ``cluster.obs``; ``None``
        (default) keeps every emit site on the NullTracer fast path.
    tuner:
        Optional tail-acting rail selection: a
        :class:`~repro.tuner.TunerConfig` or a mapping in the scenario
        ``"tuner"`` schema (see :mod:`repro.tuner`).  When set,
        every engine gets a rail selector (``cluster.tuner``) and
        ``observability`` must record tails; ``None`` (default)
        installs nothing.
    """

    def __init__(
        self,
        n_nodes: int = 2,
        networks: Sequence[tuple[str, int]] = (("mx", 1),),
        engine: str = "optimizing",
        strategy: str | Callable[[], Strategy] | None = None,
        policy: Callable[[], ChannelPolicy] | None = None,
        config: EngineConfig | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
        driver_caps: dict[str, "DriverCapabilities"] | None = None,
        faults: Mapping | FaultPlane | None = None,
        observability: Mapping | ObservabilityConfig | ObservabilityPlane | None = None,
        tuner: "Mapping | TunerConfig | None" = None,
    ) -> None:
        check_topology(n_nodes, networks, engine)

        self.sim = Simulator(tracer)
        self.rng = SeedSequenceRegistry(seed)
        self.metrics = MetricsCollector()
        self.fabric = Fabric(self.sim)
        self.engine_kind = engine
        #: Nodes in creation order (``n0`` … ``n{k-1}``).
        self.nodes: list[Node] = []
        self.engines: dict[str, CommEngineBase] = {}
        self.reassemblers: dict[str, MessageReassembler] = {}
        self.apis: dict[str, MadAPI] = {}

        nets = [
            (self.fabric.add_network(f"{tech}{i}", TECHNOLOGIES[tech]()), nics_per_node)
            for i, (tech, nics_per_node) in enumerate(networks)
        ]
        for k in range(n_nodes):
            node = self.fabric.add_node(f"n{k}")
            for network, nics_per_node in nets:
                for _ in range(nics_per_node):
                    network.attach(node)
            comm_engine, reassembler, api = build_node_stack(
                self.sim,
                node,
                engine=engine,
                strategy=strategy,
                policy=policy,
                config=config,
                driver_caps=driver_caps,
            )
            self.metrics.attach(reassembler)
            self.nodes.append(node)
            self.engines[node.name] = comm_engine
            self.reassemblers[node.name] = reassembler
            self.apis[node.name] = api

        self.fault_plane: FaultPlane | None = None
        self.transport: ReliableTransport | None = None
        if faults is not None:
            if isinstance(faults, FaultPlane):
                plane, rel_config = faults, ReliabilityConfig()
            else:
                spec = dict(faults)
                rel_spec = spec.pop("reliability", None)
                rel_config = (
                    ReliabilityConfig.from_spec(rel_spec)
                    if rel_spec is not None
                    else ReliabilityConfig()
                )
                plane = FaultPlane.from_spec(spec, default_seed=seed)
            self.fault_plane = plane
            self.transport = ReliableTransport(self.sim, self.fabric, plane, rel_config)
            self.transport.install()
            plane.install(self.fabric, self.sim)

        self.obs: ObservabilityPlane | None = None
        if observability is not None:
            if isinstance(observability, ObservabilityPlane):
                obs_plane = observability
            elif isinstance(observability, ObservabilityConfig):
                obs_plane = ObservabilityPlane(observability)
            else:
                obs_plane = ObservabilityPlane(
                    ObservabilityConfig.from_spec(observability)
                )
            obs_plane.install(self)
            self.obs = obs_plane

        self.tuner: "ClusterTuner | None" = install_tuner(self, tuner)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        """Node names in creation order."""
        return [n.name for n in self.nodes]

    def api(self, node_name: str) -> MadAPI:
        """The packing API of one node."""
        return self.apis[node_name]

    def engine(self, node_name: str) -> CommEngineBase:
        """The communication engine of one node."""
        return self.engines[node_name]

    def stream(self, name: str):
        """A named deterministic RNG stream."""
        return self.rng.stream(name)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run the simulation (see :meth:`repro.sim.Simulator.run`)."""
        return self.sim.run(until=until)

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Drain all activity; returns the final virtual time."""
        return self.sim.run_until_idle(max_events=max_events)

    def report(self, since: float = 0.0):
        """Session report over messages submitted after ``since``."""
        return self.metrics.report(self, since=since)
