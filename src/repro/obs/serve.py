"""Minimal HTTP exposure of a run's cluster-level metrics.

:class:`ObsHTTPServer` serves one read-only route table while a live run
is in flight; the coordinator's table is:

* ``GET /metrics`` — the cluster :class:`~repro.obs.metrics.MetricsRegistry`
  rendered in Prometheus text exposition format (``text/plain; version=0.0.4``).
* ``GET /status`` — a JSON document with run progress (per-peer message
  counts, quiescence, dead peers) for humans and scripts.
* ``GET /peers`` — liveness: which peers are alive, which the watchdog
  has declared dead (and why), with time-to-detect per declaration.
* ``GET /tails`` — JSON tail-latency view over the events merged so
  far, all exact from the merged trace: per-edge one-way
  latency and per-rail service time p50/p90/p99/p999, the scenario's
  SLO burn rates, and under ``"blame"`` the causal-attribution summary
  (:func:`repro.obs.analyze.tails_payload`).

``HEAD`` answers any route with its headers only; any other method gets
the standard library's 501.

The server is the standard library's :class:`http.server.ThreadingHTTPServer`
(HTTP/1.0, no keep-alive) on a daemon thread, so the coordinator — which
blocks in the synchronous control-protocol poll loop — never has to
yield to it; the data it serves comes from thread-safe callbacks that
snapshot coordinator state under a lock.  The coordinator imports this
module only when asked to serve: live peers import the coordinator's
module and must not load an HTTP stack.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["ObsHTTPServer", "parse_serve_address"]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def parse_serve_address(spec: str) -> tuple[str, int]:
    """Parse ``--serve`` specs: ``9464``, ``:9464``, ``host:9464``.

    A bare or empty host means 127.0.0.1 — observability endpoints
    should not bind wildcard unless explicitly asked to.
    """
    text = spec.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(f"invalid serve address {spec!r}") from None
    if not 0 < port < 65536:
        raise ConfigurationError(f"serve port out of range in {spec!r}")
    return (host or "127.0.0.1", port)


class _Handler(BaseHTTPRequestHandler):
    """Answers GET and HEAD from the owning :class:`ObsHTTPServer`."""

    def do_GET(self) -> None:
        owner: ObsHTTPServer = self.server.owner  # type: ignore[attr-defined]
        code, content_type, body = owner._respond(self.path)
        # Count before the write: a client that reads the full
        # Content-Length body must observe its own request counted.
        owner.requests_served += 1
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # RFC 9110 §9.3.2: HEAD gets headers only
            self.wfile.write(body)

    do_HEAD = do_GET

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:  # the client went away mid-reply
            pass

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet: the coordinator's stderr is for the run."""


class ObsHTTPServer:
    """Background HTTP server over one route table.

    Parameters
    ----------
    routes:
        ``{path: callable}``.  Each zero-arg callable is called from a
        server thread, so must be thread-safe: ``/metrics`` returns
        Prometheus exposition text, every other route a JSON-able
        mapping.
    host, port:
        Bind address.  ``port=0`` picks a free port: :attr:`port` holds
        the bound one after :meth:`start`.
    """

    def __init__(
        self,
        routes: Mapping[str, Callable[[], Any]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._routes = dict(routes)
        self._host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.requests_served = 0

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "ObsHTTPServer":
        """Bind, then serve from a daemon thread; returns self.  A bind
        failure (e.g. address in use) raises here, in the caller."""
        if self._thread is not None:
            raise ConfigurationError("ObsHTTPServer already started")
        server = ThreadingHTTPServer((self._host, self.port), _Handler)
        server.owner = self  # type: ignore[attr-defined]
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the thread (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _respond(self, path: str) -> tuple[int, str, bytes]:
        route = path.split("?", 1)[0]
        view = self._routes.get(route)
        if view is None:
            known = ", ".join(self._routes)
            return 404, "text/plain", f"not found; try {known}\n".encode()
        try:
            if route == "/metrics":
                return 200, _PROM_CONTENT_TYPE, view().encode("utf-8")
            body = json.dumps(dict(view()), indent=2, sort_keys=True)
        except Exception as exc:  # callback failure must not kill the server
            return 500, "text/plain", f"{exc}\n".encode()
        return 200, "application/json", (body + "\n").encode("utf-8")
