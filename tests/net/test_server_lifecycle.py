"""Lifecycle of the shared admission front-end (ChunkServer, GatewayServer).

Both servers run on :class:`repro.net.server.AdmissionServer`, so they
share one ``start``/``stop``: a second ``start`` on a running server
raises instead of rebinding, and ``stop`` releases the port and every
thread the server started.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.net.cluster import LocalCluster
from repro.net.gateway import GatewayServer
from repro.net.remote import RetryPolicy
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider

from tests.fleet.conftest import make_base_registry, make_gateway

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


def _chunk_server():
    return ChunkServer(InMemoryProvider("twice"), max_workers=4), None


def _gateway_server():
    gateway = make_gateway(make_base_registry())
    return GatewayServer(gateway, max_workers=4), gateway


def _wait_for_threads(count: int, timeout: float = 5.0) -> int:
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


@pytest.mark.parametrize(
    "make", [_chunk_server, _gateway_server], ids=["chunk", "gateway"]
)
def test_second_start_raises_and_stop_releases_everything(make):
    server, gateway = make()
    try:
        threads_before = threading.active_count()
        assert server.port == 0  # requested (ephemeral) until start binds
        server.start()
        port = server.port
        assert port != 0
        with pytest.raises(RuntimeError, match="already running"):
            server.start()
        assert server.port == port  # the failed start did not rebind
        server.stop()
        server.stop()  # idempotent
        assert not server.running
        with pytest.raises(OSError):
            socket.create_connection((server.host, port), timeout=1.0).close()
        assert _wait_for_threads(threads_before) == threads_before
    finally:
        server.stop()
        if gateway is not None:
            gateway.close()


class TaggedChunkServer(ChunkServer):
    """A ChunkServer subclass, to see which class a restart revives."""


def test_cluster_restart_revives_with_server_cls():
    with LocalCluster(
        2, server_cls=TaggedChunkServer, retry=FAST_RETRY
    ) as cluster:
        assert all(isinstance(s, TaggedChunkServer) for s in cluster.servers)
        cluster.kill_server(0)
        cluster.restart_server(0)
        assert isinstance(cluster.servers[0], TaggedChunkServer)
        cluster.providers[0].put("k", b"v")
        assert cluster.providers[0].get("k") == b"v"
