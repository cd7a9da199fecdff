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
  (see :mod:`repro.obs.analyze`).

``HEAD`` answers any route with its headers only.

The server is deliberately tiny: a hand-rolled HTTP/1.0 responder on
``asyncio`` streams, no keep-alive, no dependencies.
It runs its own event loop in a daemon thread so the coordinator — which
blocks in the synchronous control-protocol poll loop — never has to
yield to it; the data it serves comes from thread-safe callbacks that
snapshot coordinator state under a lock.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Callable, Mapping

from repro.util.errors import ConfigurationError

__all__ = ["ObsHTTPServer", "parse_serve_address"]

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_MAX_REQUEST_BYTES = 8192


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


class ObsHTTPServer:
    """Background HTTP server over one route table.

    Parameters
    ----------
    routes:
        ``{path: callable}``.  Each zero-arg callable is called from the
        server thread, so must be thread-safe: ``/metrics`` returns
        Prometheus exposition text, every other route a JSON-able
        mapping.
    host, port:
        Bind address.  ``port=0`` picks a free port; read it back from
        :attr:`port` after :meth:`start`.
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
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.requests_served = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when 0 was asked)."""
        return self._port

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self._port}"

    def start(self) -> "ObsHTTPServer":
        """Bind and serve from a daemon thread; returns self.

        Raises the underlying OS error (e.g. address in use) in the
        calling thread rather than dying silently in the background.
        """
        if self._thread is not None:
            raise ConfigurationError("ObsHTTPServer already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=5.0)
        if self._startup_error is not None:
            self._thread.join(timeout=1.0)
            raise self._startup_error
        if not self._started.is_set():  # pragma: no cover - defensive
            raise ConfigurationError("observability HTTP server failed to start")
        return self

    def stop(self) -> None:
        """Shut the server down and join the thread (idempotent)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(self._handle, self._host, self._port)
                )
            except BaseException as exc:  # surface bind failures to start()
                self._startup_error = exc
                return
            self._server = server
            self._port = server.sockets[0].getsockname()[1]
            self._started.set()
            loop.run_forever()
            server.close()
            loop.run_until_complete(server.wait_closed())
            # Cancel handlers caught mid-request by stop() so the loop
            # closes without "task was destroyed" noise.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self._started.set()
            loop.close()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            if not request_line or len(request_line) > _MAX_REQUEST_BYTES:
                return
            # Drain headers; responses are Connection: close, so the
            # body (if any) can be ignored.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            method, path = (parts + ["", ""])[:2]
            status, content_type, body = self._respond(method, path)
            payload = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            if method != "HEAD":  # RFC 9110 §9.3.2: HEAD gets headers only
                payload += body
            # Count before the write: a client that reads the full
            # Content-Length body must observe its own request counted.
            self.requests_served += 1
            writer.write(payload)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client went away
                pass

    def _respond(self, method: str, path: str) -> tuple[str, str, bytes]:
        if method not in ("GET", "HEAD"):
            return "405 Method Not Allowed", "text/plain", b"method not allowed\n"
        route = path.split("?", 1)[0]
        view = self._routes.get(route)
        if view is None:
            known = ", ".join(self._routes)
            return "404 Not Found", "text/plain", f"not found; try {known}\n".encode()
        try:
            if route == "/metrics":
                return "200 OK", _PROM_CONTENT_TYPE, view().encode("utf-8")
            body = json.dumps(dict(view()), indent=2, sort_keys=True)
        except Exception as exc:  # callback failure must not kill the server
            return "500 Internal Server Error", "text/plain", f"{exc}\n".encode()
        return "200 OK", "application/json", (body + "\n").encode("utf-8")
