"""The live transport plane: the optimizing engine over real sockets.

Everything above the NIC — strategies, cost model, channel policies,
the engines themselves — runs *unmodified*; this package swaps the
discrete-event substrate for wall-clock asyncio:

* :mod:`repro.live.loop` — a ``Simulator``-shaped clock over the asyncio
  event loop (sticky ``now``, shared epoch across peers);
* :mod:`repro.live.transport` — stream framing over the
  :mod:`repro.network.wire` byte codec, deterministic payload patterns,
  and the mirror reassembly that feeds received bytes back into the
  unmodified messaging stack;
* :mod:`repro.live.nic` — a NIC whose idle transition is the socket
  write buffer draining;
* :mod:`repro.live.hub` — the peer's sockets: the carrier of the
  simulator's reliability protocol and fault lottery over real bytes,
  plus reconnects, heartbeats and peer-death bookkeeping;
* :mod:`repro.live.peer` — one node's stack in one OS process, built
  above the NICs by the simulator's own builder
  (:func:`repro.runtime.cluster.build_node_stack`);
* :mod:`repro.live.observe` — what the observability plane needs on
  top inside a peer (wall-clock sampler, trace spool streamed to the
  coordinator);
* :mod:`repro.live.cluster` — the coordinator that spawns a peer mesh,
  runs a scenario file live, merges a ``SessionReport``, and assembles
  the cluster-wide observability view (aligned trace, merged metrics,
  optional live ``/metrics`` endpoint).
"""

from repro.live.cluster import LiveRunResult, run_live_scenario
from repro.live.loop import LiveClock, LiveEvent
from repro.live.nic import LiveNIC
from repro.live.observe import LiveSampler, SpoolSink
from repro.live.transport import MirrorReceiver, StreamDecoder

__all__ = [
    "LiveClock",
    "LiveEvent",
    "LiveNIC",
    "LiveSampler",
    "MirrorReceiver",
    "SpoolSink",
    "StreamDecoder",
    "LiveRunResult",
    "run_live_scenario",
]
