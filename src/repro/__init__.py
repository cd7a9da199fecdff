"""repro — a NewMadeleine-style dynamic communication optimization engine.

Reproduction of *"Short Paper: Dynamic Optimization of Communications
over High Speed Networks"* (Brunet, Aumage, Namyst — HPDC-15, 2006):
a communication subsystem whose packet optimization engine is triggered
by NIC idleness, mixes several communication flows, and is parameterized
by the capabilities of the underlying network drivers — running here on
a discrete-event simulated cluster (see ``DESIGN.md`` for the
hardware-substitution rationale).

Quickstart
----------
::

    from repro import Cluster, TrafficClass

    cluster = Cluster(n_nodes=2, networks=[("mx", 1)], engine="optimizing")
    api = cluster.api("n0")
    flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
    message = api.send(flow, payload_size=4096)
    cluster.run_until_idle()
    print(message.completion.value)   # delivery time (virtual seconds)

Layer map (paper Figure 1)
--------------------------
* collect layer / packing API → :mod:`repro.madeleine`
* optimizer–scheduler → :mod:`repro.core`
* transfer layer (drivers, NICs, networks) → :mod:`repro.drivers`,
  :mod:`repro.network`

The full module map is ``DESIGN.md`` §3.
"""

from repro.baseline.legacy import LegacyEngine
from repro.core.channels import OneToOneChannels, PooledChannels
from repro.core.config import EngineConfig
from repro.core.engine import OptimizingEngine
from repro.core.strategies import make_strategy, register_strategy
from repro.madeleine.api import MadAPI, PackingSession
from repro.madeleine.message import Flow, Fragment, Message, PackMode
from repro.network.faults import FaultPlane, FaultSpec, RailOutage
from repro.network.reliable import ReliabilityConfig, ReliableTransport
from repro.network.virtual import TrafficClass
from repro.runtime.cluster import Cluster
from repro.runtime.metrics import SessionReport
from repro.runtime.session import run_session
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "EngineConfig",
    "FaultPlane",
    "FaultSpec",
    "Flow",
    "Fragment",
    "LegacyEngine",
    "MadAPI",
    "Message",
    "OneToOneChannels",
    "OptimizingEngine",
    "PackMode",
    "PackingSession",
    "PooledChannels",
    "RailOutage",
    "ReliabilityConfig",
    "ReliableTransport",
    "SessionReport",
    "Simulator",
    "TrafficClass",
    "__version__",
    "make_strategy",
    "register_strategy",
    "run_session",
]
