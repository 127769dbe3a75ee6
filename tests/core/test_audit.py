"""Audit-trail behaviour, standalone and wired into the distributor."""

import pytest

from repro.core.audit import AuditLog
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import AuthorizationError, UnknownFileError
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.obs.events import EventLog
from repro.providers.registry import build_simulated_fleet, default_fleet_specs


# -- standalone -----------------------------------------------------------------


def test_counter_timestamps_monotone():
    log = AuditLog()
    a = log.record("get_file", "C")
    b = log.record("get_file", "C")
    assert b.timestamp > a.timestamp


def test_clock_timestamps():
    t = [10.0]
    log = AuditLog(now=lambda: t[0])
    event = log.record("upload", "C")
    assert event.timestamp == 10.0


def test_queries():
    log = AuditLog()
    log.record("get_file", "A", "f", ok=True)
    log.record("get_file", "B", "f", ok=False)
    log.record("get_chunk", "A", "f", 0, ok=False)
    assert len(log.for_client("A")) == 2
    assert len(log.failures()) == 2
    assert len(log.failures("A")) == 1


def test_auth_failure_streak():
    log = AuditLog()
    log.record("get_file", "A", ok=True)
    log.record("get_file", "A", ok=False)
    log.record("get_file", "A", ok=False)
    log.record("get_file", "B", ok=True)  # other clients don't reset A's streak
    assert log.auth_failure_streak("A") == 2
    log.record("get_file", "A", ok=True)
    assert log.auth_failure_streak("A") == 0


def test_read_sweep_breadth():
    t = [0.0]
    log = AuditLog(now=lambda: t[0])
    for serial in range(5):
        t[0] += 1.0
        log.record("get_chunk", "A", "f", serial, ok=True)
    assert log.read_sweep_breadth("A", window=10.0) == 5
    assert log.read_sweep_breadth("A", window=1.5) == 2  # only the last two
    assert log.read_sweep_breadth("B", window=10.0) == 0


def test_provider_sweep_breadth_keyed_by_virtual_id():
    t = [0.0]
    log = AuditLog(now=lambda: t[0])
    # A legitimate client re-reads one chunk: one vid, few providers.
    for _ in range(4):
        t[0] += 1.0
        log.record("get_chunk", "A", "f", 0, ok=True,
                   virtual_ids=(7,), providers=("p0", "p1"))
    narrow = log.provider_sweep_breadth("A", window=10.0)
    assert narrow.virtual_ids == 1
    assert narrow.providers == 2
    # An intruder sweeps distinct vids across the whole fleet.
    for serial in range(4):
        t[0] += 1.0
        log.record("get_chunk", "X", "g", serial, ok=True,
                   virtual_ids=(100 + serial,),
                   providers=(f"p{serial}", f"p{serial + 1}"))
    broad = log.provider_sweep_breadth("X", window=10.0)
    assert broad.virtual_ids == 4
    assert broad.providers == 5
    # Failed reads and other clients never count.
    t[0] += 1.0
    log.record("get_chunk", "X", "g", 9, ok=False,
               virtual_ids=(999,), providers=("p9",))
    assert log.provider_sweep_breadth("X", window=100.0).virtual_ids == 4


def test_records_emit_structured_log_events():
    events = EventLog()
    log = AuditLog(event_log=events)
    log.record("get_file", "A", "f", ok=True,
               virtual_ids=(3, 4), providers=("p0",))
    log.record("get_file", "B", "f", ok=False, detail="AuthorizationError")
    emitted = events.named("audit")
    assert len(emitted) == 2
    assert emitted[0]["client"] == "A"
    assert emitted[0]["level"] == "info"
    assert emitted[0]["virtual_ids"] == [3, 4]
    assert emitted[0]["providers"] == ["p0"]
    assert emitted[1]["level"] == "warning"
    assert emitted[1]["detail"] == "AuthorizationError"


# -- distributor integration ---------------------------------------------------


@pytest.fixture
def audited():
    registry, _, clock = build_simulated_fleet(default_fleet_specs(7), seed=55)
    log = AuditLog(now=lambda: clock.now)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), seed=56, audit=log
    )
    d.register_client("Bob")
    d.add_password("Bob", "low", PrivacyLevel.LOW)
    d.add_password("Bob", "high", PrivacyLevel.PRIVATE)
    return d, log


def test_distributor_records_lifecycle(audited):
    d, log = audited
    d.upload_file("Bob", "high", "f", b"x" * 2000, PrivacyLevel.PRIVATE)
    d.get_file("Bob", "high", "f")
    d.get_chunk("Bob", "high", "f", 0)
    d.update_chunk("Bob", "high", "f", 0, b"y" * 100)
    d.remove_file("Bob", "high", "f")
    ops = [e.operation for e in log.events]
    assert ops == ["upload", "get_file", "get_chunk", "update_chunk", "remove_file"]
    assert all(e.ok for e in log.events)
    assert all(e.client == "Bob" for e in log.events)


#: Both whole-file readers: get_file, and get_stream (which resolves and
#: authorizes eagerly, then fetches lazily -- drained here).
READERS = {
    "get_file": lambda d, *args: d.get_file(*args),
    "get_stream": lambda d, *args: b"".join(d.get_stream(*args)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_distributor_records_denials(audited, reader):
    d, log = audited
    d.upload_file("Bob", "high", "secret", b"s" * 600, PrivacyLevel.PRIVATE)
    for _ in range(3):
        with pytest.raises(AuthorizationError):
            READERS[reader](d, "Bob", "low", "secret")
    failures = log.failures("Bob")
    assert len(failures) == 3
    assert all(f.detail == "AuthorizationError" for f in failures)
    assert log.auth_failure_streak("Bob") == 3


@pytest.mark.parametrize("reader", sorted(READERS))
def test_distributor_records_missing_file(audited, reader):
    d, log = audited
    with pytest.raises(UnknownFileError):
        READERS[reader](d, "Bob", "high", "ghost")
    failure = log.failures("Bob")[-1]
    assert failure.operation == "get_file"
    assert failure.detail == "UnknownFileError"


def test_failed_upload_recorded(audited):
    d, log = audited
    with pytest.raises(AuthorizationError):
        d.upload_file("Bob", "low", "f", b"x", PrivacyLevel.PRIVATE)
    assert log.events[-1].operation == "upload"
    assert not log.events[-1].ok


def test_no_audit_by_default(distributor, bob):
    assert distributor.audit is None
    distributor.upload_file(bob, "Ty7e", "f", b"x", PrivacyLevel.PRIVATE)  # no crash
