"""The windowed data path: placement pinned, lock split kept honest.

Uploads plan every chunk inside the critical section (rng draws and id
allocation in serial order, with a working copy of the provider loads)
and transfer lock-free in per-provider batches, one window at a time --
so placement must not depend on the window size, and must match what the
historical chunk-serial loop placed.  These tests pin both, plus the
semantics the lock split must not lose: upload atomicity, write
failover, the duplicate-filename guard across the lock-free window, and
read parity between ``get_file`` and ``get_stream``.
"""

import hashlib
import io
import json
import os
import threading

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel


def make_distributor(n=6, width=4, seed=63, **kwargs):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=61)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        stripe_width=width,
        seed=seed,
        **kwargs,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, providers


def sabotage_puts(victim):
    def put(key, data):
        raise ProviderUnavailableError(f"{victim.name} sabotaged")

    victim.put = put


DATA = bytes(range(256)) * 40  # 10240 bytes -> 20 chunks at 512


def placement_state(d):
    """Everything placement decides (the credentials carry random salts)."""
    return {k: v for k, v in d.export_metadata().items() if k != "access"}


#: sha256 of ``placement_state`` after the two uploads below, recorded from
#: the historical chunk-serial upload path before it was deleted.  Seeded
#: placement, rng draw order and id allocation must keep matching it.
SERIAL_PATH_DIGEST = (
    "9b1a72a8aefadae02129d20c6039006f5f05de4dbbdd2c4bb4cefc029ad7709e"
)
SERIAL_PATH_LOADS = {"P0": 18, "P1": 17, "P2": 17, "P3": 17, "P4": 18, "P5": 17}


def test_fault_free_pipelined_upload_is_bit_identical_to_serial():
    d, _ = make_distributor()
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE,
                  misleading_fraction=0.1)
    d.upload_file("C", "pw", "g", DATA[:3000], PrivacyLevel.PRIVATE,
                  raid_level=RaidLevel.RAID6)

    state = json.dumps(placement_state(d), sort_keys=True).encode()
    assert hashlib.sha256(state).hexdigest() == SERIAL_PATH_DIGEST
    assert d.provider_loads() == SERIAL_PATH_LOADS
    assert d.get_file("C", "pw", "f") == DATA


@pytest.mark.parametrize("window_chunks", [1, 3, 20])
def test_placement_is_window_size_invariant(window_chunks):
    whole, _ = make_distributor()
    whole.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE,
                      misleading_fraction=0.1)
    windowed, _ = make_distributor()
    windowed.put_stream("C", "pw", "f", io.BytesIO(DATA),
                        PrivacyLevel.PRIVATE, misleading_fraction=0.1,
                        window_chunks=window_chunks)

    assert windowed.provider_loads() == whole.provider_loads()
    assert placement_state(windowed) == placement_state(whole)
    assert windowed.get_file("C", "pw", "f") == DATA


@pytest.mark.parametrize("raid", [RaidLevel.RAID5, RaidLevel.RAID6])
def test_pipelined_roundtrip_both_raid_levels(raid):
    d, _ = make_distributor()
    data = os.urandom(7000)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE,
        raid_level=raid, misleading_fraction=0.2,
    )
    assert receipt.raid_level is raid
    assert d.get_file("C", "pw", "f") == data
    assert b"".join(d.get_stream("C", "pw", "f", window_chunks=1)) == data


def test_pipelined_upload_rolls_back_whole_file_when_chunk_lost():
    # Width 4 over exactly 4 providers, two sabotaged: 2 of 4 < k=3, and
    # no spare exists -- every chunk is terminal, the file must vanish.
    d, providers = make_distributor(n=4, width=4)
    sabotage_puts(providers[0])
    sabotage_puts(providers[1])
    with pytest.raises(ProviderUnavailableError):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)

    assert sum(d.provider_loads().values()) == 0
    assert all(p.object_count == 0 for p in providers)
    assert d.client_table.get("C").chunk_refs == []
    # The reservation was released: the name is reusable.
    assert d._inflight_uploads == {}


def test_pipelined_write_failover_uses_spare():
    d, providers = make_distributor(n=6, width=4)
    victim = providers[0]
    sabotage_puts(victim)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    assert victim.object_count == 0
    # Every shard landed somewhere: total objects match the receipt.
    assert sum(d.provider_loads().values()) == 20 * 4


def test_degraded_write_accepted_when_k_shards_land_pipelined():
    # No spare exists (width == fleet): one failed member is accepted
    # degraded, and the file still reads back through parity.
    d, providers = make_distributor(n=4, width=4)
    sabotage_puts(providers[0])
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    assert providers[0].object_count == 0


def test_duplicate_filename_rejected_while_upload_in_flight():
    d, _ = make_distributor()
    # Simulate a pipelined upload parked in its lock-free transfer phase.
    d._inflight_uploads["C"] = {"f"}
    with pytest.raises(ValueError, match="already stores"):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    with pytest.raises(ValueError, match="already stores"):
        d.put_stream("C", "pw", "f", io.BytesIO(DATA), PrivacyLevel.PRIVATE)
    d._inflight_uploads.clear()
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)


def test_concurrent_same_name_uploads_store_exactly_one_copy():
    d, _ = make_distributor()
    outcomes = []
    barrier = threading.Barrier(2)

    def attempt():
        barrier.wait()
        try:
            d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
            outcomes.append("ok")
        except ValueError:
            outcomes.append("duplicate")

    threads = [threading.Thread(target=attempt) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(outcomes) == ["duplicate", "ok"]
    assert d.get_file("C", "pw", "f") == DATA
    assert sum(d.provider_loads().values()) == 20 * 4


def test_get_file_parity_between_paths():
    d, _ = make_distributor()
    data = os.urandom(5000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE,
                  misleading_fraction=0.15)
    assert d.get_file("C", "pw", "f") == data
    for window_chunks in (1, 3, 100):
        segments = d.get_stream("C", "pw", "f", window_chunks=window_chunks)
        assert b"".join(segments) == data


def test_pipelined_get_survives_dead_member():
    d, providers = make_distributor(n=4, width=4)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    providers[1].available = False
    assert d.get_file("C", "pw", "f") == DATA


def test_pipelined_get_fills_and_uses_cache():
    from repro.core.cache import ChunkCache

    cache = ChunkCache(capacity_bytes=1 << 20)
    d, providers = make_distributor(cache=cache)
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == DATA
    # Second read is served entirely from cache: even a dark fleet answers.
    for p in providers:
        p.available = False
    assert d.get_file("C", "pw", "f") == DATA


def test_placement_error_during_planning_releases_ids():
    d, _ = make_distributor(n=4, width=4)
    before = d.ids.export_state()
    from repro.core.errors import PlacementError

    with pytest.raises(PlacementError):
        d.upload_file("C", "pw", "f", DATA, PrivacyLevel.PRIVATE,
                      stripe_width=5)  # wider than the fleet
    assert d.ids.export_state() == before
    assert d._inflight_uploads == {}
