"""Chunk server + RemoteProvider behaviour: lifecycle, errors, retries."""

from __future__ import annotations

import hashlib
import socket
import threading

import pytest

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.net.pool import ConnectionPool
from repro.net.protocol import (
    OpCode,
    Status,
    encode_deadline_request,
    encode_frame,
    read_frame,
    recv_frame,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


@pytest.fixture
def served():
    backend = InMemoryProvider("srv")
    with ChunkServer(backend) as server:
        with RemoteProvider(
            "srv", server.host, server.port, retry=FAST_RETRY
        ) as provider:
            yield backend, server, provider


def test_server_binds_ephemeral_port(served):
    _, server, _ = served
    assert server.port != 0
    assert server.running


def test_ping(served):
    _, _, provider = served
    assert provider.ping() >= 0.0


def test_error_statuses_translate(served):
    backend, _, provider = served
    with pytest.raises(BlobNotFoundError):
        provider.get("missing")
    with pytest.raises(BlobNotFoundError):
        provider.delete("missing")
    backend.put("k", b"data")
    backend.corrupt_blob("k")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")


def test_connection_survives_errors(served):
    """An error response must not poison the pooled connection."""
    _, _, provider = served
    for _ in range(3):
        with pytest.raises(BlobNotFoundError):
            provider.get("missing")
    provider.put("k", b"v")
    assert provider.get("k") == b"v"
    assert provider.pool.idle_count >= 1  # connection was reused, not dropped


def test_concurrent_clients(served):
    """Many threads through one provider: the pool must keep frames paired."""
    _, _, provider = served
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            payload = bytes([i]) * (1000 + i)
            provider.put(f"key-{i}", payload)
            assert provider.get(f"key-{i}") == payload
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(provider.keys()) == 16


def test_dead_server_raises_unavailable_after_retries():
    backend = InMemoryProvider("gone")
    server = ChunkServer(backend).start()
    port = server.port
    server.stop()
    provider = RemoteProvider("gone", "127.0.0.1", port, retry=FAST_RETRY)
    with pytest.raises(ProviderUnavailableError, match="3 attempt"):
        provider.get("k")
    provider.close()


def test_kill_mid_session_then_restart():
    backend = InMemoryProvider("flaky")
    server = ChunkServer(backend).start()
    port = server.port
    provider = RemoteProvider("flaky", "127.0.0.1", port, retry=FAST_RETRY)
    provider.put("k", b"v")
    server.stop()
    with pytest.raises(ProviderUnavailableError):
        provider.get("k")
    # Same backend, same port: the client recovers through its retry loop
    # discarding the stale pooled connections.
    server2 = ChunkServer(backend, port=port).start()
    try:
        assert provider.get("k") == b"v"
    finally:
        provider.close()
        server2.stop()


def test_circuit_breaker_fails_fast_then_recovers():
    backend = InMemoryProvider("cb")
    server = ChunkServer(backend).start()
    port = server.port
    provider = RemoteProvider(
        "cb", "127.0.0.1", port, retry=FAST_RETRY, failfast_window=30.0
    )
    provider.put("k", b"v")
    server.stop()
    with pytest.raises(ProviderUnavailableError, match="attempt"):
        provider.get("k")  # pays the full retry budget once
    with pytest.raises(ProviderUnavailableError, match="circuit open"):
        provider.get("k")  # subsequent calls fail fast
    server2 = ChunkServer(backend, port=port).start()
    try:
        provider.reset_circuit()
        assert provider.get("k") == b"v"
    finally:
        provider.close()
        server2.stop()


def test_put_is_atomic_with_checksum_echo(served):
    backend, _, provider = served
    provider.put("k", b"exact bytes")
    assert backend.get("k") == b"exact bytes"


def test_server_answers_unknown_opcode(served):
    _, server, _ = served
    with socket.create_connection((server.host, server.port), timeout=2) as sock:
        sock.sendall(encode_frame(0x7F, "k", b""))
        frame = recv_frame(sock)
    assert frame.code == Status.BAD_REQUEST


# SHA-256 of the server's response bytes for each request sequence.  A
# mismatch is a wire change: deployed clients parse exactly these bytes.
WIRE_GOLDEN = {
    "ping": (
        [encode_frame(OpCode.PING, payload=b"ping")],
        1,
        "7051760c2c710fcaa26baa3d1e85b752a6ba35f95488b144eb54b31e826d7d45",
    ),
    "put-get-missing": (
        [
            encode_frame(OpCode.PUT, key="k", payload=b"data"),
            encode_frame(OpCode.GET, key="k"),
            encode_frame(OpCode.GET, key="missing"),
        ],
        3,
        "561b2c1958770ca290443446ce00d0d64e04da4c90bdceeb75e78af307e396e9",
    ),
    "unknown-opcode": (
        [encode_frame(0x7F)],
        1,
        "23c2883befbdd0dcabaefc7f34c7429bd78a345f0aa605a0a96a39df4036c761",
    ),
    "enveloped-stream-op": (
        [
            encode_frame(
                OpCode.DEADLINE,
                payload=encode_deadline_request(
                    5000, encode_frame(OpCode.STREAM_PUT)
                ),
            )
        ],
        1,
        "60ca31ec64e2e725839af33f56b110ac739486fc89af2353157f682e722a94db",
    ),
    "stream-window": (
        [
            encode_frame(OpCode.STREAM_PUT),
            encode_frame(OpCode.STREAM_SEG, key="s", payload=b"seg"),
            encode_frame(OpCode.STREAM_END),
            encode_frame(OpCode.GET, key="s"),
        ],
        4,
        "aed47a1b58de34f2a323c5a75b8a1a7a9a9c43b7b9d190b7c6fd2a48413edb38",
    ),
}


@pytest.mark.parametrize("scenario", sorted(WIRE_GOLDEN))
def test_chunk_server_answers_are_pinned(scenario):
    requests, reads, golden = WIRE_GOLDEN[scenario]
    with ChunkServer(InMemoryProvider("golden")) as server:
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as sock:
            for raw in requests:
                sock.sendall(raw)
            with sock.makefile("rb") as rfile:
                answers = b""
                for _ in range(reads):
                    frame = read_frame(rfile)
                    assert frame is not None
                    answers += encode_frame(
                        frame.code, key=frame.key, payload=frame.payload
                    )
    assert hashlib.sha256(answers).hexdigest() == golden


def test_shed_frame_is_pinned():
    backend = InMemoryProvider("golden")
    with ChunkServer(backend, max_workers=1, accept_queue=1) as server:
        address = (server.host, server.port)
        with socket.create_connection(address, timeout=5) as pinned:
            pinned.sendall(encode_frame(OpCode.PING, payload=b"x"))
            assert recv_frame(pinned).code == Status.OK
            with socket.create_connection(address, timeout=5):
                with socket.create_connection(address, timeout=5) as shed:
                    raw = b""
                    while chunk := shed.recv(4096):
                        raw += chunk
    assert hashlib.sha256(raw).hexdigest() == (
        "3b8e196ec1bf5c922cf53cba3a85854d08a2740fdc97664fa0af6c08652df23f"
    )


def test_server_hangs_up_on_garbage(served):
    _, server, _ = served
    with socket.create_connection((server.host, server.port), timeout=2) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 32)
        frame = recv_frame(sock)
        assert frame is None or frame.code == Status.BAD_REQUEST


def test_stop_is_idempotent():
    server = ChunkServer(InMemoryProvider("x")).start()
    server.stop()
    server.stop()
    assert not server.running


def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(attempts=6, base_delay=0.1, max_delay=0.4)
    delays = [policy.delay(i) for i in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_pool_caps_idle_connections():
    backend = InMemoryProvider("pooled")
    with ChunkServer(backend) as server:
        pool = ConnectionPool(server.host, server.port, size=2)
        socks = []
        for _ in range(4):
            cm = pool.acquire()
            socks.append((cm, cm.__enter__()))
        for cm, _ in socks:
            cm.__exit__(None, None, None)
        assert pool.idle_count == 2  # the two extras were closed, not leaked
        pool.close()
        with pytest.raises(RuntimeError):
            with pool.acquire():
                pass


def test_wire_errors_stay_in_provider_hierarchy(served):
    """Every wire failure surfaces as a ProviderError subclass, so RAID
    degraded reads treat remote failures like local ones."""
    _, server, provider = served
    server.stop()
    with pytest.raises(ProviderError):
        provider.get("k")
