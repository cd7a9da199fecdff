"""Declarative scenarios: dict/JSON in, cluster + workloads + report out.

A scenario is a plain mapping (hand-written, or loaded from a JSON
file) describing the cluster, the workloads, and the run window::

    {
      "name": "mixed-middleware",
      "cluster": {
        "n_nodes": 2,
        "networks": [["mx", 1]],
        "engine": "optimizing",
        "strategy": "aggregate",
        "policy": "pooled",
        "config": {"lookahead_window": 16},
        "seed": 0
      },
      "workloads": [
        {"app": "pingpong", "src": "n0", "dst": "n1", "count": 50},
        {"app": "stream", "src": "n0", "dst": "n1", "size": 1024,
         "count": 100, "traffic_class": "bulk"},
        {"app": "barrier", "nodes": ["n0", "n1"], "rounds": 5}
      ],
      "faults": {
        "drop": 0.05,
        "outages": [{"nic": "n0.mx00", "at": 0.002, "recover": 0.004}],
        "reliability": {"max_retries": 10}
      },
      "observability": {"sample_interval": 1e-5, "ring_buffer": 65536},
      "tuner": {"rails": {"p99_budget_us": 500.0, "min_samples": 32,
                          "refresh_every": 32}},
      "run": {"until": null, "warmup": 0.0}
    }

The optional ``"faults"`` block activates the fault-injection plane and
reliability protocol (:mod:`repro.network.faults`,
:mod:`repro.network.reliable`); the optional ``"observability"`` block
attaches trace capture and the periodic sampler
(:mod:`repro.obs.plane`); the optional ``"tuner"`` block gives every
engine a :class:`~repro.core.channels.TailRailOrder` built from its
``rails`` keys (all optional; the block being there is the switch,
optimizing engine only).

Every block has one reader, shared by both planes, and a block that is
one constructor's arguments is typed by its signature
(:func:`~repro.util.errors.read_block`).  An unknown key, a wrong-typed
value, or an outage or ``die`` rank naming no part of the cluster is a
:class:`~repro.util.errors.ConfigurationError` naming the key, in the
same words on both planes — a typo'd knob silently ignored would
invalidate the experiment it configures.

:func:`run_scenario` executes it and returns ``(report, cluster,
apps)``; the ``python -m repro run`` CLI wraps this for files.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.adaptive import AdaptiveChannels
from repro.core.channels import (
    ChannelPolicy,
    OneToOneChannels,
    PooledChannels,
    TailRailOrder,
    WeightedChannels,
)
from repro.core.config import EngineConfig
from repro.core.strategies.base import STRATEGY_TYPES
from repro.middleware import (
    AllReduceApp,
    AppBase,
    BarrierApp,
    BroadcastApp,
    ControlPlaneApp,
    DsmApp,
    GlobalArraysApp,
    HaloExchangeApp,
    PingPongApp,
    RpcApp,
    StreamApp,
)
from repro.network.faults import FaultConfig, check_outages, rail_names
from repro.obs.plane import ObservabilityConfig
from repro.runtime.cluster import Cluster, check_topology
from repro.runtime.metrics import SessionReport
from repro.runtime.session import run_session
from repro.util.errors import ConfigurationError, read_block, reject_unknown_keys

__all__ = [
    "APP_TYPES",
    "POLICY_TYPES",
    "parse_cluster",
    "build_workloads",
    "build_scenario",
    "run_scenario",
    "load_scenario_file",
]

_PAIR, _GROUP = ("src", "dst"), ("nodes",)
#: Workload app name → (class, the endpoint keys an entry must name even
#: where the constructor defaults them).
APP_TYPES: dict[str, tuple[type, tuple[str, ...]]] = {
    "pingpong": (PingPongApp, _PAIR),
    "stream": (StreamApp, _PAIR),
    "rpc": (RpcApp, _PAIR),
    "dsm": (DsmApp, _PAIR),
    "global_arrays": (GlobalArraysApp, _PAIR),
    "control": (ControlPlaneApp, _PAIR),
    "broadcast": (BroadcastApp, _GROUP),
    "barrier": (BarrierApp, _GROUP),
    "allreduce": (AllReduceApp, _GROUP),
    "halo": (HaloExchangeApp, _GROUP),
}

#: Channel policy name → factory.
POLICY_TYPES: dict[str, Callable[[], ChannelPolicy]] = {
    "pooled": lambda: PooledChannels(by_class=True),
    "shared": lambda: PooledChannels(by_class=False),
    "one-to-one": OneToOneChannels,
    "weighted": WeightedChannels,
    "adaptive": AdaptiveChannels,
}

#: Keys a scenario mapping may carry at its top level.
_SCENARIO_KEYS = frozenset(
    {"name", "description", "cluster", "workloads", "faults", "observability", "tuner", "run"}
)
#: The hand-kept schemas (see :func:`~repro.util.errors.read_block`) of
#: the blocks whose keys are no one constructor's parameters.  The
#: ``cluster`` block's defaults are :class:`Cluster`'s.
_CLUSTER_SCHEMA = {
    key: (kind, inspect.signature(Cluster).parameters[key].default)
    for key, kind in {"n_nodes": int, "networks": list, "engine": str, "strategy": str,
                      "policy": str, "config": Mapping, "seed": int}.items()
}
_RUN_SCHEMA = {"until": (float, None), "warmup": (float, 0.0)}
_TUNER_SCHEMA = {"rails": (Mapping, {})}


def parse_cluster(scenario: Mapping[str, Any]) -> dict[str, Any]:
    """The whole scenario but its workloads, read once for both planes.

    Every ``cluster`` key is a :class:`Cluster` keyword (absent ones at
    the constructor's default; ``policy`` a factory, ``config`` an
    :class:`EngineConfig`, ``networks`` tuples), as are ``rail_order``
    (the ``"tuner"`` block), ``faults`` (a
    :class:`~repro.network.faults.FaultConfig`) and ``observability``
    (an :class:`~repro.obs.plane.ObservabilityConfig`), each ``None``
    without its block; ``run`` is the ``"run"`` block.  The simulator's
    :class:`Cluster`, the live coordinator (before it forks) and every
    live peer build from this, so a bad block fails alike everywhere.
    """
    reject_unknown_keys(scenario, _SCENARIO_KEYS, "scenario")
    spec = read_block(scenario.get("cluster", {}), _CLUSTER_SCHEMA, "cluster")
    policy = spec["policy"]
    if policy is not None:
        if policy not in POLICY_TYPES:
            raise ConfigurationError(f"unknown policy {policy!r} (known: {sorted(POLICY_TYPES)})")
        spec["policy"] = POLICY_TYPES[policy]
    strategy = spec["strategy"]
    if strategy is not None and strategy not in STRATEGY_TYPES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r} (known: {sorted(STRATEGY_TYPES)})"
        )
    if spec["config"] is not None:
        config = read_block(spec["config"], EngineConfig, "cluster.config")
        spec["config"] = EngineConfig(**config)
    check_topology(spec["n_nodes"], spec["networks"], spec["engine"])
    spec["networks"] = [tuple(net) for net in spec["networks"]]
    spec["rail_order"] = _parse_rail_order(scenario.get("tuner"), spec["engine"])
    faults = scenario.get("faults")
    if faults is not None:
        faults = FaultConfig.from_spec(faults, default_seed=spec["seed"])
        nodes = [f"n{k}" for k in range(spec["n_nodes"])]
        check_outages(faults.outages, rail_names(nodes, spec["networks"]))
        if faults.die is not None and faults.die.rank >= spec["n_nodes"]:
            raise ConfigurationError(
                f"faults die rank {faults.die.rank} >= n_nodes {spec['n_nodes']}"
            )
    spec["faults"] = faults
    observability = scenario.get("observability")
    if observability is not None:
        observability = ObservabilityConfig.from_spec(observability)
    spec["observability"] = observability
    spec["run"] = read_block(scenario.get("run", {}), _RUN_SCHEMA, "run")
    return spec


def _parse_rail_order(block: Any, engine: str) -> Callable[[], TailRailOrder] | None:
    """The ``"tuner"`` block as a :class:`TailRailOrder` factory."""
    if block is None:
        return None
    tuner = read_block(block, _TUNER_SCHEMA, "tuner")
    rails = read_block(tuner["rails"], TailRailOrder, "tuner.rails")
    TailRailOrder(**rails)  # a bad value raises here, naming its key
    if engine != "optimizing":
        raise ConfigurationError(
            f"the tuner requires the optimizing engine (cluster runs {engine!r})"
        )
    return functools.partial(TailRailOrder, **rails)


def _build_app(entry: Any, index: int) -> AppBase:
    """The ``index``-th workload-list entry into an (uninstalled) app."""
    where = f"workloads[{index}]"
    if not isinstance(entry, Mapping):
        raise ConfigurationError(f"{where} must be an object, got {entry!r}")
    spec = dict(entry)
    if "app" not in spec:
        raise ConfigurationError(f"workload entry missing 'app': {spec}")
    app_name = spec.pop("app")
    if not isinstance(app_name, str) or app_name not in APP_TYPES:
        raise ConfigurationError(f"unknown app {app_name!r} (known: {sorted(APP_TYPES)})")
    app_type, endpoints = APP_TYPES[app_name]
    for key in endpoints:
        if key not in spec:
            raise ConfigurationError(f"app {app_name!r} missing endpoint key {key!r}")
    values = read_block(spec, app_type, where)
    # Named by workload position: RNG stream names derive from app
    # names, so the same scenario must name its apps the same way on
    # every run and on every live peer, whichever entries carry a name.
    if values["name"] is None:
        values["name"] = f"{app_type.__name__}{index}"
    return app_type(**values)


def build_workloads(scenario: Mapping[str, Any]) -> list[AppBase]:
    """The (uninstalled) workload apps of a scenario, in list order.

    Shared by both planes: a live peer installs the same apps, under
    the same names, that the simulator would."""
    apps = [
        _build_app(entry, index)
        for index, entry in enumerate(scenario.get("workloads", []))
    ]
    if not apps:
        raise ConfigurationError("scenario has no workloads")
    return apps


def build_scenario(scenario: Mapping[str, Any]) -> tuple[Cluster, list[AppBase]]:
    """Build the cluster and (uninstalled) workload apps of a scenario."""
    cluster, apps, _run = _build(scenario)
    return cluster, apps


def _build(scenario: Mapping[str, Any]) -> tuple[Cluster, list[AppBase], dict[str, Any]]:
    spec = parse_cluster(scenario)
    run = spec.pop("run")
    return Cluster(**spec), build_workloads(scenario), run


def run_scenario(
    scenario: Mapping[str, Any],
) -> tuple[SessionReport, Cluster, list[AppBase]]:
    """Build and execute a scenario; returns (report, cluster, apps)."""
    cluster, apps, run = _build(scenario)
    report = run_session(
        cluster,
        [app.install for app in apps],
        until=run["until"],
        warmup=run["warmup"],
    )
    return report, cluster, apps


def load_scenario_file(path: str | Path) -> dict:
    """Load a scenario mapping from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    scenario = json.loads(text)
    if not isinstance(scenario, dict):
        raise ConfigurationError(f"scenario file {path} must contain a JSON object")
    return scenario
