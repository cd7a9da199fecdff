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
      "run": {"until": null, "warmup": 0.0}
    }

The optional ``"faults"`` block activates the fault-injection plane and
reliability protocol (:mod:`repro.network.faults`,
:mod:`repro.network.reliable`); the optional ``"observability"`` block
attaches trace capture and the periodic sampler
(:mod:`repro.obs.plane`).  Unknown keys anywhere in the scenario
are rejected with :class:`~repro.util.errors.ConfigurationError` naming
the bad key — a typo'd knob silently ignored would invalidate the
experiment it configures.

:func:`run_scenario` executes it and returns ``(report, apps)``; the
``python -m repro run`` CLI wraps this for files.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.adaptive import AdaptiveChannels
from repro.core.channels import (
    ChannelPolicy,
    OneToOneChannels,
    PooledChannels,
    WeightedChannels,
)
from repro.core.config import EngineConfig
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
from repro.network.virtual import TrafficClass
from repro.runtime.cluster import Cluster
from repro.runtime.metrics import SessionReport
from repro.runtime.session import run_session
from repro.util.errors import ConfigurationError

__all__ = [
    "APP_TYPES",
    "POLICY_TYPES",
    "parse_cluster",
    "build_workloads",
    "build_scenario",
    "run_scenario",
    "load_scenario_file",
]

#: Workload app name → (class, endpoint kind: "pair" or "group").
APP_TYPES: dict[str, tuple[type, str]] = {
    "pingpong": (PingPongApp, "pair"),
    "stream": (StreamApp, "pair"),
    "rpc": (RpcApp, "pair"),
    "dsm": (DsmApp, "pair"),
    "global_arrays": (GlobalArraysApp, "pair"),
    "control": (ControlPlaneApp, "pair"),
    "broadcast": (BroadcastApp, "group"),
    "barrier": (BarrierApp, "group"),
    "allreduce": (AllReduceApp, "group"),
    "halo": (HaloExchangeApp, "group"),
}

#: Channel policy name → factory.
POLICY_TYPES: dict[str, Callable[[], ChannelPolicy]] = {
    "pooled": lambda: PooledChannels(by_class=True),
    "shared": lambda: PooledChannels(by_class=False),
    "one-to-one": OneToOneChannels,
    "weighted": WeightedChannels,
    "adaptive": AdaptiveChannels,
}

#: Keys a scenario mapping may carry at each level.
_SCENARIO_KEYS = frozenset(
    {
        "name",
        "description",
        "cluster",
        "workloads",
        "faults",
        "observability",
        "tuner",
        "run",
    }
)
_CLUSTER_KEYS = frozenset(
    {"n_nodes", "networks", "engine", "strategy", "policy", "config", "seed"}
)
_RUN_KEYS = frozenset({"until", "warmup"})
#: What an absent ``cluster`` key means: the constructor's own default.
_CLUSTER_DEFAULTS = {
    key: inspect.signature(Cluster).parameters[key].default for key in _CLUSTER_KEYS
}


def _reject_unknown_keys(spec: Mapping[str, Any], known: frozenset, where: str) -> None:
    for key in spec:
        if key not in known:
            raise ConfigurationError(
                f"unknown {where} key {key!r} (known: {sorted(known)})"
            )


def _parse_traffic_class(value: Any) -> Any:
    if isinstance(value, str):
        try:
            return TrafficClass(value)
        except ValueError:
            raise ConfigurationError(
                f"unknown traffic class {value!r} "
                f"(known: {[c.value for c in TrafficClass]})"
            ) from None
    return value


def parse_cluster(scenario: Mapping[str, Any]) -> dict[str, Any]:
    """The ``cluster`` block as :class:`Cluster` keyword arguments.

    Every ``cluster`` key is present in the result (absent ones at the
    constructor's default), with ``policy`` resolved to its factory,
    ``config`` to an :class:`EngineConfig` and ``networks`` to tuples.
    Both planes read the block through here — the simulator to build a
    :class:`Cluster`, the live coordinator (before it forks) and every
    live peer to build one node's stack — so a typo fails the same way
    everywhere.
    """
    _reject_unknown_keys(scenario, _SCENARIO_KEYS, "scenario")
    block = scenario.get("cluster", {})
    _reject_unknown_keys(block, _CLUSTER_KEYS, "cluster")
    spec = {**_CLUSTER_DEFAULTS, **block}
    if spec["policy"] is not None:
        try:
            spec["policy"] = POLICY_TYPES[spec["policy"]]
        except KeyError:
            raise ConfigurationError(
                f"unknown policy {spec['policy']!r} (known: {sorted(POLICY_TYPES)})"
            ) from None
    if spec["config"] is not None:
        try:
            spec["config"] = EngineConfig(**spec["config"])
        except TypeError as bad:
            raise ConfigurationError(f"engine config: {bad}") from None
    spec["networks"] = [tuple(net) for net in spec["networks"]]
    return spec


def _build_app(spec: Mapping[str, Any], index: int) -> AppBase:
    """The ``index``-th workload-list entry into an (uninstalled) app."""
    spec = dict(spec)
    try:
        app_name = spec.pop("app")
    except KeyError:
        raise ConfigurationError(f"workload entry missing 'app': {spec}") from None
    try:
        app_type, endpoint_kind = APP_TYPES[app_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown app {app_name!r} (known: {sorted(APP_TYPES)})"
        ) from None
    # Named by workload position: RNG stream names derive from app
    # names, so the same scenario must name its apps the same way on
    # every run and on every live peer, whichever entries carry a name.
    spec.setdefault("name", f"{app_type.__name__}{index}")
    if "traffic_class" in spec:
        spec["traffic_class"] = _parse_traffic_class(spec["traffic_class"])
    try:
        if endpoint_kind == "pair":
            src = spec.pop("src")
            dst = spec.pop("dst")
            return app_type(src, dst, **spec)
        nodes = spec.pop("nodes")
        return app_type(nodes, **spec)
    except KeyError as missing:
        raise ConfigurationError(
            f"app {app_name!r} missing endpoint key {missing}"
        ) from None
    except TypeError as bad:
        raise ConfigurationError(f"app {app_name!r}: {bad}") from None


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
    cluster_spec = parse_cluster(scenario)
    for block in ("faults", "observability", "tuner"):
        if scenario.get(block) is not None:
            cluster_spec[block] = scenario[block]
    cluster = Cluster(**cluster_spec)
    return cluster, build_workloads(scenario)


def run_scenario(
    scenario: Mapping[str, Any],
) -> tuple[SessionReport, Cluster, list[AppBase]]:
    """Build and execute a scenario; returns (report, cluster, apps)."""
    cluster, apps = build_scenario(scenario)
    run_spec = scenario.get("run", {})
    _reject_unknown_keys(run_spec, _RUN_KEYS, "run")
    report = run_session(
        cluster,
        [app.install for app in apps],
        until=run_spec.get("until"),
        warmup=run_spec.get("warmup", 0.0),
    )
    return report, cluster, apps


def load_scenario_file(path: str | Path) -> dict:
    """Load a scenario mapping from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    scenario = json.loads(text)
    if not isinstance(scenario, dict):
        raise ConfigurationError(f"scenario file {path} must contain a JSON object")
    return scenario
