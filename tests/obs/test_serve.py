"""Tests for the minimal /metrics-/status HTTP endpoint."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs.serve import ObsHTTPServer, parse_serve_address
from repro.util.errors import ConfigurationError


class TestParseServeAddress:
    def test_bare_port(self):
        assert parse_serve_address("9464") == ("127.0.0.1", 9464)

    def test_colon_port(self):
        assert parse_serve_address(":9464") == ("127.0.0.1", 9464)

    def test_host_and_port(self):
        assert parse_serve_address("0.0.0.0:8080") == ("0.0.0.0", 8080)

    @pytest.mark.parametrize("bad", ["", ":", "host:", "host:nan", "x:-1", "x:70000"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            parse_serve_address(bad)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestObsHTTPServer:
    @pytest.fixture()
    def server(self):
        srv = ObsHTTPServer(
            lambda: "repro_up 1\n",
            lambda: {"phase": "running", "peers": 2},
            port=0,
        )
        srv.start()
        yield srv
        srv.stop()

    def test_metrics_endpoint(self, server):
        status, headers, body = _get(f"{server.address}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert body == b"repro_up 1\n"

    def test_status_endpoint(self, server):
        status, headers, body = _get(f"{server.address}/status")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(body) == {"phase": "running", "peers": 2}

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.address}/nope")
        assert err.value.code == 404

    def test_tails_404_without_callback(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.address}/tails")
        assert err.value.code == 404

    def test_tails_endpoint(self):
        payload = {"edges": {"n0->n1": {"p99_us": 123.0}}, "rails": {}}
        srv = ObsHTTPServer(
            lambda: "", lambda: {}, None, lambda: payload, port=0
        ).start()
        try:
            status, headers, body = _get(f"{srv.address}/tails")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert json.loads(body) == payload
        finally:
            srv.stop()

    def test_why_404_without_callback(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.address}/why")
        assert err.value.code == 404

    def test_why_endpoint(self):
        payload = {
            "messages": 3,
            "incomplete": 0,
            "edges": {"n0->n1": {"wire": 0.9, "unattributed": 0.1}},
            "slowest": [],
        }
        srv = ObsHTTPServer(
            lambda: "", lambda: {}, None, None, lambda: payload, port=0
        ).start()
        try:
            status, headers, body = _get(f"{srv.address}/why")
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
            assert json.loads(body) == payload
        finally:
            srv.stop()

    def test_callback_exception_is_500(self):
        def boom() -> str:
            raise RuntimeError("registry on fire")

        srv = ObsHTTPServer(boom, lambda: {}, port=0).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{srv.address}/metrics")
            assert err.value.code == 500
        finally:
            srv.stop()

    def test_head_gets_headers_without_body(self, server):
        """RFC 9110 §9.3.2: a HEAD response carries GET's headers and no
        content; the server closes the connection after them."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
            conn.sendall(b"HEAD /metrics HTTP/1.0\r\n\r\n")
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"Content-Length: 11" in head  # GET's length for "repro_up 1\n"
        assert body == b""

    def test_serves_many_requests(self, server):
        for _ in range(5):
            status, _, _ = _get(f"{server.address}/status")
            assert status == 200
        assert server.requests_served >= 5

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()

    def test_port_zero_resolves(self, server):
        assert server.port > 0

    def test_bind_conflict_raises(self, server):
        clash = ObsHTTPServer(lambda: "", lambda: {}, port=server.port)
        with pytest.raises(OSError):
            clash.start()
