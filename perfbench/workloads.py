"""The benchmark's three workloads, their stacks and their checks.

Every workload drives the public API of ``repro.core.distributor`` from
one process with at most two client threads, and returns the same eleven
end-to-end metrics; ``METRICS`` in ``run.py`` says what each one means on
each workload.

A shared host speeds up and slows down from one second to the next, so
each phase is cut into windows: medians and MB/s are the median over the
windows, which keeps one slow stretch from moving a run's figure.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.cache import ChunkCache
from repro.core.distributor import CloudDataDistributor
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.streaming import DEFAULT_WINDOW_CHUNKS
from repro.core.virtual_id import shard_key, snapshot_key
from repro.loadgen.workload import WorkloadSpec, synthesize
from repro.net.cluster import LocalCluster
from repro.net.server import ChunkServer
from repro.obs.metrics import get_metrics
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

_perf = time.perf_counter

#: The CLI's chunk-cache budget (``repro.cli.CACHE_BYTES``).
CACHE_BYTES = 64 << 20
PASSWORD = "bench-pw"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Windows per measured phase.
WINDOWS = 8
MiB = 1 << 20


@dataclass
class Options:
    seed: int
    seconds: float
    workdir: Path
    smoke: bool = False
    ledger: object = None  # ledger.Ledger when tracing


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    driver: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, dict]
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks.values())


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def mbps(samples: list[tuple[float, int]]) -> float:
    """MB/s over (seconds, bytes) samples."""
    seconds = sum(s for s, _ in samples)
    return sum(b for _, b in samples) / seconds / 1e6 if seconds else 0.0


def request_mbps(samples: list[tuple[float, int]]) -> float:
    """Median over requests of bytes / service time, in MB/s.

    For requests of a few KiB a handful of stalled ones would dominate a
    bytes-over-time total; the median request is what the workload's
    small-record user sees.
    """
    return percentile([b / s / 1e6 for s, b in samples if s > 0], 50)


def windowed(samples: list[tuple[float, int]], stat) -> float:
    """Median over WINDOWS consecutive slices of *samples* of ``stat``."""
    n = min(WINDOWS, len(samples))
    if n == 0:
        return 0.0
    bounds = np.linspace(0, len(samples), n + 1).astype(int)
    return float(np.median([stat(samples[a:b])
                            for a, b in zip(bounds, bounds[1:])]))


def _p50(samples: list[tuple[float, int]]) -> float:
    return percentile([s for s, _ in samples], 50)


def closed_loop_figures(puts: list, gets: list, degraded: list) -> dict:
    """Latency and MB/s metrics from (seconds, bytes) samples in time order.

    p50 and MB/s are medians over the phase's windows; p99 is over the
    whole phase, because a window holds too few samples for it.
    """
    return {
        "read_p50_ms": windowed(gets, _p50) * 1e3,
        "read_p99_ms": percentile([s for s, _ in gets], 99) * 1e3,
        "write_p50_ms": windowed(puts, _p50) * 1e3,
        "write_p99_ms": percentile([s for s, _ in puts], 99) * 1e3,
        "max_rate_ops": (len(puts) + len(gets))
        / sum(s for s, _ in puts + gets),
        "put_mbps": windowed(puts, mbps),
        "get_mbps": windowed(gets, mbps),
        "degraded_get_mbps": windowed(degraded, mbps),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_scope(ledger):
    return ledger.op() if ledger is not None else contextlib.nullcontext()


def closed_loop_driver(busy: float, wall: float) -> dict:
    """Driver rows for one closed-loop client (no schedule to fall behind)."""
    share = busy / wall if wall else 0.0
    return {
        "driver.lateness_p99_ms": 0.0,
        "driver.worker_busy_share": share,
        "driver.worker0_busy_share": share,
        "driver.worker1_busy_share": 0.0,
    }


# -- checks --------------------------------------------------------------------


class Reads:
    """Byte-exact read checks by SHA-256 (called from both workers)."""

    def __init__(self) -> None:
        self.verified = 0
        self.mismatched: list[str] = []
        self._lock = threading.Lock()

    def check(self, name: str, digest: bytes, expected: bytes) -> None:
        with self._lock:
            if digest == expected:
                self.verified += 1
            else:
                self.mismatched.append(name)

    def result(self) -> dict:
        return {
            "ok": self.verified > 0 and not self.mismatched,
            "verified": self.verified,
            "mismatched": self.mismatched[:5],
        }


def fleet_check(dist: CloudDataDistributor, backends: dict, live_bytes: int,
                misleading_fraction: float) -> tuple[float, dict, dict]:
    """Stored-bytes and placement checks over every live chunk.

    Returns ``(stored_bytes_ratio, stored_check, distinct_check)``.  The
    providers must hold exactly the live shards (sized by the stripe
    geometry) plus the live snapshots, nothing else; the shard bytes per
    live byte must match the codec's n/k scaled by the misleading growth;
    and each chunk's shards must sit on distinct providers, so no single
    provider holds more than one shard of a chunk.
    """
    held = {name: {k: b.head(k).size for k in b.keys()}
            for name, b in backends.items()}
    accounted: dict[str, set] = {name: set() for name in backends}
    geometry_bytes = shard_bytes = snapshot_bytes = chunks = 0
    nominal = None
    missing: list[str] = []
    shared: list[int] = []

    def account(name: str, key: str) -> int:
        if key in held[name]:
            accounted[name].add(key)
            return held[name][key]
        missing.append(f"{name}:{key}")
        return 0

    for client in dist.client_table:
        for ref in client.chunk_refs:
            entry = dist.chunk_table.get(ref.chunk_index)
            meta = dist.stripe_meta(client.name, ref.filename, ref.serial)
            names = [dist.provider_table.get(i).name
                     for i in entry.provider_indices]
            chunks += 1
            if len(set(names)) != len(names):
                shared.append(entry.virtual_id)
            nominal = meta.n / meta.k * (1 + misleading_fraction)
            geometry_bytes += meta.n * meta.shard_size
            for index, name in enumerate(names):
                shard_bytes += account(name, shard_key(entry.virtual_id, index))
            if entry.snapshot_index is not None:
                name = dist.provider_table.get(entry.snapshot_index).name
                snapshot_bytes += account(name, snapshot_key(entry.virtual_id))
    orphans = sum(len(set(keys) - accounted[name])
                  for name, keys in held.items())
    total = sum(sum(keys.values()) for keys in held.values())
    shard_ratio = shard_bytes / live_bytes if live_bytes else 0.0
    stored = {
        "ok": (not missing and orphans == 0
               and shard_bytes == geometry_bytes
               and nominal is not None
               and abs(shard_ratio / nominal - 1) <= 0.02),
        "shard_bytes": shard_bytes,
        "geometry_bytes": geometry_bytes,
        "snapshot_bytes": snapshot_bytes,
        "live_bytes": live_bytes,
        "shard_ratio": shard_ratio,
        "nominal_ratio": nominal,
        "missing": missing[:5],
        "orphans": orphans,
    }
    distinct = {"ok": chunks > 0 and not shared, "chunks": chunks,
                "shared": shared[:5]}
    return (total / live_bytes if live_bytes else 0.0), stored, distinct


def setup_median(build, teardown) -> tuple[float, object, list[float]]:
    """Build the stack SETUPS times; keep the last, tear down the rest."""
    times: list[float] = []
    stack = None
    for i in range(SETUPS):
        t0 = _perf()
        stack = build(i)
        times.append(_perf() - t0)
        if i < SETUPS - 1:
            teardown(stack)
    return float(np.median(times)), stack, times


# -- small-ops ---------------------------------------------------------------

SMALL_WHY = (
    "Sensitive 8 KiB records with the full defence; cached GETs make the "
    "fixed per-request cost (auth, op_lock, placement, tables, journal) dominate"
)

SLO_P99_S = 0.050
FIXED_RATE = 200.0
SMALL_WORKERS = 2
SMALL_LEVEL = 2
MISLEADING = 0.1
MAX_SEARCH_RATE = 1600.0


def staircase_estimate(trials: list[tuple[float, bool]]) -> float:
    """Knee of an adaptive staircase: the median offered rate of the trials
    from the first reversal on, where about half the trials meet the SLO.

    Without a reversal the search never crossed the knee; the highest
    passing rate is the best bound then (0 if nothing passed).
    """
    first = next((i for i in range(1, len(trials))
                  if trials[i][1] != trials[i - 1][1]), None)
    if first is None:
        return max((r for r, ok in trials if ok), default=0.0)
    return float(np.median([r for r, _ in trials[first:]]))


class _FileModel:
    """Expected content of every live file, for byte-exact read checks."""

    def __init__(self, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        self.files: dict[tuple[str, str], tuple[bytes, int]] = {}

    def put(self, key, data: bytes) -> None:
        self.files[key] = (data, min(self.chunk_size, len(data)))

    def update(self, key, data: bytes) -> None:
        # update_chunk replaces chunk 0 (the trace only updates serial 0).
        content, first = self.files[key]
        self.files[key] = (data + content[first:], len(data))

    def delete(self, key) -> None:
        del self.files[key]

    def digest(self, key) -> bytes:
        return hashlib.sha256(self.files[key][0]).digest()

    def live_bytes(self) -> int:
        return sum(len(c) for c, _ in self.files.values())


class SmallOps:
    def __init__(self, opts: Options) -> None:
        self.opts = opts
        # Time split: 45% fixed-rate windows and 40% staircase trials,
        # alternating; 15% degraded reads at the end.
        self.rounds = 2 if opts.smoke else WINDOWS
        self.trials_per_round = 2
        self.window_s = opts.seconds * 0.45 / self.rounds
        self.trial_s = opts.seconds * 0.40 / (self.rounds * self.trials_per_round)
        self.degraded_s = opts.seconds * 0.15
        n_ops = int((FIXED_RATE + MAX_SEARCH_RATE) * opts.seconds * 0.45) + 64
        self.trace = synthesize(WorkloadSpec(privacy_level=SMALL_LEVEL), n_ops,
                                seed=opts.seed)
        self.cursor = 0
        self.reads = Reads()
        self.model: _FileModel | None = None
        self.dist: CloudDataDistributor | None = None

    # -- stack ---------------------------------------------------------------

    def build(self, i: int):
        registry = ProviderRegistry()
        n = 6
        for p in range(n):
            # The fleet `repro init --providers 6` writes.
            pl = 3 if p < max(4, n // 2) else p % 4
            registry.register(InMemoryProvider(f"P{p}"),
                              PrivacyLevel.coerce(pl), CostLevel.coerce(p % 4))
        journal_dir = self.opts.workdir / f"journal-{i}"
        shutil.rmtree(journal_dir, ignore_errors=True)
        journal_dir.mkdir(parents=True)
        dist = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy(),
            seed=self.opts.seed,
            cache=ChunkCache(CACHE_BYTES),
            journal=IntentJournal(journal_dir / "journal.jsonl"),
        )
        if self.opts.ledger is not None:
            self.opts.ledger.trace_distributor(dist)
        model = _FileModel(dist.chunk_policy.chunk_size(SMALL_LEVEL))
        for tenant in self.trace.tenants:
            dist.register_client(tenant)
            dist.add_password(tenant, PASSWORD, SMALL_LEVEL)
        for op in self.trace.setup:
            data = op.payload()
            dist.upload_file(op.tenant, PASSWORD, op.filename, data,
                             SMALL_LEVEL, misleading_fraction=MISLEADING)
            model.put((op.tenant, op.filename), data)
        # Warm-up: every file read once, so timed reads find it cached.
        for (tenant, name) in list(model.files):
            data = dist.get_file(tenant, PASSWORD, name)
            self.reads.check(name, hashlib.sha256(data).digest(),
                             model.digest((tenant, name)))
        return dist, model

    @staticmethod
    def teardown(stack) -> None:
        stack[0].close()

    # -- operations ------------------------------------------------------------

    def apply(self, op, payload) -> bytes | None:
        """Run one traced operation; a get returns the bytes it read."""
        d, key = self.dist, (op.tenant, op.filename)
        if op.kind == "get":
            return d.get_file(op.tenant, PASSWORD, op.filename)
        if op.kind == "put":
            d.upload_file(op.tenant, PASSWORD, op.filename, payload,
                          SMALL_LEVEL, misleading_fraction=MISLEADING)
            self.model.put(key, payload)
        elif op.kind == "update":
            d.update_chunk(op.tenant, PASSWORD, op.filename, op.serial, payload)
            self.model.update(key, payload)
        else:
            d.remove_file(op.tenant, PASSWORD, op.filename)
            self.model.delete(key)
        return None

    def open_loop(self, rate: float, seconds: float) -> dict:
        """Offer ops at *rate* for *seconds*; latency from intended send.

        The schedule is fixed and split before the run: ops are routed by
        (tenant, file), which keeps per-file order and gives both workers
        work.  A worker sleeps until its next op is due and runs it; an op
        due while its worker is still busy waits, and that wait counts in
        its latency.  The generator's lateness is how late an idle worker
        woke for a due op.
        """
        n = max(1, int(rate * seconds))
        ops = self.trace.operations[self.cursor:self.cursor + n]
        self.cursor += len(ops)
        payloads = {op.index: op.payload() for op in ops
                    if op.kind in ("put", "update")}
        ledger = self.opts.ledger
        t0 = _perf() + 0.02
        plans: list[list] = [[] for _ in range(SMALL_WORKERS)]
        for i, op in enumerate(ops):
            route = zlib.crc32(f"{op.tenant}/{op.filename}".encode())
            plans[route % SMALL_WORKERS].append((t0 + i / rate, op))
        workers = [dict(busy=0.0, last=t0, ops=0, failed=0) for _ in plans]
        lat = {"read": [], "write": []}
        service = {"get": [], "put": []}
        lateness: list[float] = []

        def work(w: int) -> None:
            stats = workers[w]
            for intended, op in plans[w]:
                delay = intended - _perf()
                if delay > 0:
                    time.sleep(delay)
                    lateness.append(_perf() - intended)
                payload = payloads.get(op.index)
                start = _perf()
                data = None
                try:
                    with _op_scope(ledger):
                        data = self.apply(op, payload)
                except Exception:  # a failed request still cost its latency
                    stats["failed"] += 1
                end = _perf()
                lat["read" if op.kind == "get" else "write"].append(
                    end - intended)
                if op.kind == "put" or data is not None:
                    service[op.kind].append(
                        (end - start, len(payload if data is None else data)))
                stats["busy"] += end - start
                stats["ops"] += 1
                stats["last"] = end
                if data is not None:
                    self.reads.check(op.filename, hashlib.sha256(data).digest(),
                                     self.model.digest((op.tenant, op.filename)))

        threads = [threading.Thread(target=work, args=(w,), daemon=True)
                   for w in range(SMALL_WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        span = max(max(w["last"] for w in workers) - t0, 1e-9)
        p99 = percentile(lat["read"] + lat["write"], 99)
        achieved = len(ops) / span
        failed = sum(w["failed"] for w in workers)
        return {
            "rate": rate,
            "ops": len(ops),
            "failed": failed,
            "span": span,
            "lat": lat,
            "service": service,
            "p99": p99,
            "achieved_ratio": achieved / rate,
            "passed": (p99 <= SLO_P99_S and achieved >= 0.95 * rate
                       and failed == 0),
            "lateness": lateness,
            "busy": [w["busy"] for w in workers],
            "worker_ops": [w["ops"] for w in workers],
        }

    def degraded_reads(self) -> dict:
        """Lose one provider's blobs, then read every live file uncached."""
        dist = self.dist
        counts = {e.name: len(e.provider.keys()) for e in dist.registry.all()}
        lost = max(sorted(counts), key=counts.get)
        backend = dist.registry.get(lost).provider
        for key in backend.keys():
            backend.drop_blob(key)
        ledger = self.opts.ledger
        files = sorted(self.model.files)
        samples: list[tuple[float, int]] = []
        failed = 0
        deadline = _perf() + self.degraded_s
        while _perf() < deadline or not samples:
            dist.cache.clear()
            for tenant, name in files:
                start = _perf()
                try:
                    with _op_scope(ledger):
                        data = dist.get_file(tenant, PASSWORD, name)
                except Exception:
                    failed += 1
                    continue
                samples.append((_perf() - start, len(data)))
                self.reads.check(name, hashlib.sha256(data).digest(),
                                 self.model.digest((tenant, name)))
                if _perf() >= deadline:
                    break
        return {"mbps": request_mbps(samples), "ops": len(samples) + failed,
                "failed": failed, "lost": lost}

    def run(self) -> Outcome:
        setup_s, (self.dist, self.model), setup_times = setup_median(
            self.build, self.teardown)
        if self.opts.ledger is not None:
            self.opts.ledger.reset()
        retries0 = get_metrics().sum_counter("net_client_retries_total")

        # Fixed-rate windows and staircase trials alternate, so both sample
        # the whole run rather than one stretch of a noisy host.
        cache = self.dist.cache
        fixed, trials = [], []
        hits = misses = 0
        rate, step, last = 2 * FIXED_RATE, 0.25, None
        for _ in range(self.rounds):
            hits0, misses0 = cache.hits, cache.misses
            fixed.append(self.open_loop(FIXED_RATE, self.window_s))
            hits += cache.hits - hits0
            misses += cache.misses - misses0
            for _ in range(self.trials_per_round):
                trial = self.open_loop(rate, self.trial_s)
                trials.append(trial)
                passed = trial["passed"]
                if last is not None and passed != last:
                    step = max(step / 2, 0.03)
                last = passed
                rate = (min(MAX_SEARCH_RATE, rate * (1 + step)) if passed
                        else rate * (1 - step))

        ratio, stored, distinct = fleet_check(
            self.dist,
            {e.name: e.provider for e in self.dist.registry.all()},
            self.model.live_bytes(), MISLEADING,
        )
        degraded = self.degraded_reads()
        retries = get_metrics().sum_counter("net_client_retries_total") - retries0

        def over_windows(stat) -> float:
            return float(np.median([stat(f) for f in fixed]))

        metrics = {
            "setup_s": setup_s,
            "read_p50_ms": over_windows(
                lambda f: percentile(f["lat"]["read"], 50)) * 1e3,
            "read_p99_ms": over_windows(
                lambda f: percentile(f["lat"]["read"], 99)) * 1e3,
            "write_p50_ms": over_windows(
                lambda f: percentile(f["lat"]["write"], 50)) * 1e3,
            "write_p99_ms": over_windows(
                lambda f: percentile(f["lat"]["write"], 99)) * 1e3,
            "max_rate_ops": staircase_estimate(
                [(t["rate"], t["passed"]) for t in trials]),
            "put_mbps": request_mbps(
                [x for f in fixed for x in f["service"]["put"]]),
            "get_mbps": request_mbps(
                [x for f in fixed for x in f["service"]["get"]]),
            "degraded_get_mbps": degraded["mbps"],
            "peak_rss_mib": peak_rss_mib(),
            "stored_bytes_ratio": ratio,
        }
        phases = fixed + trials
        lateness = [x for p in phases for x in p["lateness"]]
        busy = [sum(p["busy"][w] for p in phases) for w in range(SMALL_WORKERS)]
        wall = sum(p["span"] for p in phases)
        driver = {
            "driver.lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "driver.worker_busy_share": sum(busy) / SMALL_WORKERS / wall,
            "driver.worker0_busy_share": busy[0] / wall,
            "driver.worker1_busy_share": busy[1] / wall,
        }
        self.dist.close()
        reads = [x for f in fixed for x in f["lat"]["read"]]
        writes = [x for f in fixed for x in f["lat"]["write"]]
        return Outcome(
            metrics=metrics,
            driver=driver,
            attempted=sum(p["ops"] for p in phases) + degraded["ops"],
            failed=sum(p["failed"] for p in phases) + degraded["failed"],
            checks={"reads_sha256": self.reads.result(),
                    "stored_bytes": stored,
                    "distinct_providers": distinct},
            detail={
                "setup_s_each": setup_times,
                "samples": {"read": len(reads), "write": len(writes),
                            "windows": len(fixed)},
                "fixed_rate": {
                    "rate": FIXED_RATE,
                    "pooled_read_p99_ms": percentile(reads, 99) * 1e3,
                    "pooled_write_p99_ms": percentile(writes, 99) * 1e3,
                    "cache_hit_ratio": hits / max(1, hits + misses),
                },
                "staircase": [
                    {"rate": round(t["rate"], 1), "p99_ms": t["p99"] * 1e3,
                     "achieved_ratio": t["achieved_ratio"],
                     "passed": t["passed"]}
                    for t in trials
                ],
                "worker_ops": [sum(p["worker_ops"][w] for p in phases)
                               for w in range(SMALL_WORKERS)],
                "degraded": {k: degraded[k] for k in ("ops", "lost")},
                "remote_retries": retries,
            },
        )


# -- bulk-rs -----------------------------------------------------------------

BULK_WHY = (
    "Codec-bound 2 MiB files under rs(6,3) on a 9-node cluster, working set "
    "above the 64 MiB cache: encode dominates puts, decode dominates degraded gets"
)

BULK_CODEC = "rs(6,3)"
BULK_NODES = 9
BULK_SIZE = 2 * MiB
#: Live files kept on the fleet: 36 x 2 MiB is more than the cache holds,
#: so cyclic reads in upload order never hit it.
BULK_LIVE = 36


class _Corpus:
    """Seeded file contents carved out of one random block."""

    def __init__(self, seed: int, block: int) -> None:
        self.rng = np.random.default_rng([seed, 0xB0C])
        self.block = self.rng.bytes(block)

    def file(self, i: int, size: int) -> bytes:
        off = (i * 1_000_003) % (len(self.block) - size)
        return self.block[off:off + size]


class BulkRS:
    def __init__(self, opts: Options) -> None:
        self.opts = opts
        self.size = 256 * 1024 if opts.smoke else BULK_SIZE
        self.live = 4 if opts.smoke else BULK_LIVE
        self.corpus = _Corpus(opts.seed, 2 * self.size)
        self.reads = Reads()

    def build(self, i: int):
        cluster = LocalCluster(BULK_NODES, server_cls=ChunkServer).start()
        dist = CloudDataDistributor(cluster.build_registry(), codec=BULK_CODEC,
                                    seed=self.opts.seed,
                                    cache=ChunkCache(CACHE_BYTES))
        if self.opts.ledger is not None:
            self.opts.ledger.trace_distributor(dist)
        dist.register_client("bulk")
        dist.add_password("bulk", PASSWORD, PrivacyLevel.PUBLIC)
        data = self.corpus.file(10**6 + i, self.size)
        dist.upload_file("bulk", PASSWORD, "warm", data, PrivacyLevel.PUBLIC)
        self.reads.check("warm", hashlib.sha256(
            dist.get_file("bulk", PASSWORD, "warm")).digest(),
            hashlib.sha256(data).digest())
        dist.remove_file("bulk", PASSWORD, "warm")
        return cluster, dist

    @staticmethod
    def teardown(stack) -> None:
        cluster, dist = stack
        dist.close()
        cluster.stop()

    def run(self) -> Outcome:
        setup_s, (cluster, dist), setup_times = setup_median(
            self.build, self.teardown)
        ledger = self.opts.ledger
        if ledger is not None:
            ledger.reset()
        retries0 = get_metrics().sum_counter("net_client_retries_total")
        secs = self.opts.seconds
        began = _perf()
        live: list[tuple[str, int, bytes]] = []  # (name, size, digest)
        puts: list[tuple[float, int]] = []
        put_failed = read_failed = n = 0
        deadline = _perf() + secs * 0.4
        while _perf() < deadline or len(live) < self.live:
            if len(live) >= self.live:
                dist.remove_file("bulk", PASSWORD, live.pop(0)[0])
            # Sizes a little under 2 MiB, so stripes carry some padding.
            size = self.size - int(self.corpus.rng.integers(0, 64 * 1024))
            data = self.corpus.file(n, size)
            name = f"b{n}"
            n += 1
            start = _perf()
            try:
                with _op_scope(ledger):
                    dist.upload_file("bulk", PASSWORD, name, data,
                                     PrivacyLevel.PUBLIC, codec=BULK_CODEC)
            except Exception:
                put_failed += 1
                continue
            puts.append((_perf() - start, size))
            live.append((name, size, hashlib.sha256(data).digest()))

        ratio, stored, distinct = fleet_check(
            dist, {b.name: b for b in cluster.backends},
            sum(size for _, size, _ in live), 0.0)

        cursor = [0]

        def read_phase(seconds: float) -> list[tuple[float, int]]:
            nonlocal read_failed
            samples: list[tuple[float, int]] = []
            end = _perf() + seconds
            while _perf() < end or not samples:
                name, _, digest = live[cursor[0] % len(live)]
                cursor[0] += 1
                start = _perf()
                try:
                    with _op_scope(ledger):
                        data = dist.get_file("bulk", PASSWORD, name)
                except Exception:
                    read_failed += 1
                    continue
                samples.append((_perf() - start, len(data)))
                self.reads.check(name, hashlib.sha256(data).digest(), digest)
            return samples

        gets = read_phase(secs * 0.25)
        lost = cluster.backends[0]
        for key in lost.keys():
            lost.drop_blob(key)
        degraded = read_phase(secs * 0.35)
        wall = _perf() - began
        retries = get_metrics().sum_counter("net_client_retries_total") - retries0
        busy = sum(s for s, _ in puts + gets + degraded)
        metrics = {"setup_s": setup_s,
                   **closed_loop_figures(puts, gets, degraded),
                   "peak_rss_mib": peak_rss_mib(),
                   "stored_bytes_ratio": ratio}
        self.teardown((cluster, dist))
        return Outcome(
            metrics=metrics,
            driver=closed_loop_driver(busy, wall),
            attempted=n + len(gets) + len(degraded) + read_failed,
            failed=put_failed + read_failed,
            checks={"reads_sha256": self.reads.result(),
                    "stored_bytes": stored,
                    "distinct_providers": distinct},
            detail={
                "setup_s_each": setup_times,
                "samples": {"put": len(puts), "get": len(gets),
                            "degraded_get": len(degraded)},
                "lost_node": lost.name,
                "remote_retries": retries,
            },
        )


# -- stream-mem ---------------------------------------------------------------
#
# In-memory backends on purpose: with DiskProvider backends (fsync per blob)
# this workload's medians moved by up to 27% between two sets of ten runs on
# a shared 2-core host, with the host's disk and page-cache load, which is
# past any bound a gate can hold.  The journal's fsyncs (small-ops) still put
# a durable write path in the benchmark.

STREAM_WHY = (
    "Files of 100+ upload windows through put_stream/get_stream, raid5 over 4 "
    "in-memory chunk servers: the windowed pipeline and the wire"
)

STREAM_NODES = 4
STREAM_CODEC = "raid5"
STREAM_LIVE = 2


class _SeededFile:
    """A read-only file object of *size* seeded bytes; notes window starts."""

    def __init__(self, block: bytes, shift: int, size: int,
                 window: int) -> None:
        self.block = memoryview(block)
        self.shift = shift
        self.size = size
        self.window = window
        self.pos = 0
        self.window_starts: list[float] = []

    def readinto(self, buf) -> int:
        if self.pos % self.window == 0 and self.pos < self.size:
            self.window_starts.append(_perf())
        n = min(len(buf), self.size - self.pos)
        out, done = memoryview(buf), 0
        while done < n:
            at = (self.pos + self.shift) % len(self.block)
            take = min(n - done, len(self.block) - at)
            out[done:done + take] = self.block[at:at + take]
            done += take
            self.pos += take
        return n

    def digest(self) -> bytes:
        sha = hashlib.sha256()
        pos = 0
        while pos < self.size:
            at = (pos + self.shift) % len(self.block)
            take = min(self.size - pos, len(self.block) - at)
            sha.update(self.block[at:at + take])
            pos += take
        return sha.digest()


class StreamMem:
    def __init__(self, opts: Options) -> None:
        self.opts = opts
        self.chunk = ChunkSizePolicy().chunk_size(PrivacyLevel.PUBLIC)
        self.window = DEFAULT_WINDOW_CHUNKS * self.chunk
        self.windows = 8 if opts.smoke else 100
        self.rng = np.random.default_rng([opts.seed, 0x5D])
        # Odd length, so chunk boundaries never line up with the block.
        self.block = self.rng.bytes(MiB + 4099)
        self.reads = Reads()

    def build(self, i: int):
        cluster = LocalCluster(STREAM_NODES, server_cls=ChunkServer).start()
        dist = CloudDataDistributor(cluster.build_registry(),
                                    codec=STREAM_CODEC, seed=self.opts.seed)
        if self.opts.ledger is not None:
            self.opts.ledger.trace_distributor(dist)
        dist.register_client("stream")
        dist.add_password("stream", PASSWORD, PrivacyLevel.PUBLIC)
        f = _SeededFile(self.block, 7, 2 * self.window + 123, self.window)
        dist.put_stream("stream", PASSWORD, "warm", f, PrivacyLevel.PUBLIC)
        sha = hashlib.sha256()
        for segment in dist.get_stream("stream", PASSWORD, "warm"):
            sha.update(segment)
        self.reads.check("warm", sha.digest(), f.digest())
        dist.remove_file("stream", PASSWORD, "warm")
        return cluster, dist

    @staticmethod
    def teardown(stack) -> None:
        cluster, dist = stack
        dist.close()
        cluster.stop()

    def get_once(self, dist, name: str, digest: bytes, ledger) -> list:
        """Stream *name* back; one (seconds, bytes) sample per window.

        A window's time is the time spent in the ``next()`` calls that
        returned its segments (the consumer's own hashing is excluded).
        """
        sha = hashlib.sha256()
        samples: list[tuple[float, int]] = []
        t, nbytes, count = 0.0, 0, 0
        start = _perf()
        with _op_scope(ledger):
            segments = dist.get_stream("stream", PASSWORD, name)
        t += _perf() - start
        while True:
            start = _perf()
            with _op_scope(ledger):
                segment = next(segments, None)
            t += _perf() - start
            if segment is None:
                break
            sha.update(segment)
            nbytes += len(segment)
            count += 1
            if count == DEFAULT_WINDOW_CHUNKS:
                samples.append((t, nbytes))
                t, nbytes, count = 0.0, 0, 0
        if count:
            samples.append((t, nbytes))
        elif samples:
            last_t, last_b = samples[-1]
            samples[-1] = (last_t + t, last_b)
        self.reads.check(name, sha.digest(), digest)
        return samples

    def run(self) -> Outcome:
        setup_s, stack, setup_times = setup_median(self.build, self.teardown)
        cluster, dist = stack
        ledger = self.opts.ledger
        if ledger is not None:
            ledger.reset()
        retries0 = get_metrics().sum_counter("net_client_retries_total")
        secs = self.opts.seconds
        began = _perf()
        live: list[tuple[str, int, bytes]] = []  # (name, size, digest)
        puts: list[tuple[float, int]] = []  # one sample per upload window
        failed = n = files_put = 0
        # A file takes seconds, so a phase starts no file it cannot finish
        # at the pace of the last one; the run stays close to --seconds.
        deadline = _perf() + secs * 0.45
        last = 0.0
        while _perf() + last < deadline or not live:
            started = _perf()
            if len(live) >= STREAM_LIVE:
                dist.remove_file("stream", PASSWORD, live.pop(0)[0])
            size = self.windows * self.window + int(
                self.rng.integers(0, self.chunk))
            f = _SeededFile(self.block, n * 65_537, size, self.window)
            digest = f.digest()
            name = f"s{n}"
            n += 1
            try:
                with _op_scope(ledger):
                    dist.put_stream("stream", PASSWORD, name, f,
                                    PrivacyLevel.PUBLIC)
            except Exception:
                failed += 1
                continue
            # Window i took from its read to the next window's read; the
            # last one ends when put_stream returns.
            marks = f.window_starts + [_perf()]
            sizes = [self.window] * (len(marks) - 2) + [
                size - self.window * (len(marks) - 2)]
            puts.extend((b - a, s) for a, b, s in zip(marks, marks[1:], sizes))
            files_put += 1
            live.append((name, size, digest))
            last = _perf() - started

        ratio, stored, distinct = fleet_check(
            dist, {b.name: b for b in cluster.backends},
            sum(size for _, size, _ in live), 0.0)

        def read_phase(seconds: float) -> tuple[list, int]:
            nonlocal failed
            samples: list[tuple[float, int]] = []
            files = 0
            end = _perf() + seconds
            last = 0.0
            while _perf() + last < end or not files:
                started = _perf()
                name, _, digest = live[files % len(live)]
                try:
                    samples.extend(self.get_once(dist, name, digest, ledger))
                except Exception:
                    failed += 1
                files += 1
                last = _perf() - started
            return samples, files

        gets, files_got = read_phase(secs * 0.25)
        lost = cluster.backends[0]
        for key in lost.keys():
            lost.drop_blob(key)
        degraded, files_degraded = read_phase(secs * 0.3)
        wall = _perf() - began
        retries = get_metrics().sum_counter("net_client_retries_total") - retries0
        busy = sum(s for s, _ in puts + gets + degraded)
        metrics = {"setup_s": setup_s,
                   **closed_loop_figures(puts, gets, degraded),
                   "peak_rss_mib": peak_rss_mib(),
                   "stored_bytes_ratio": ratio}
        self.teardown(stack)
        return Outcome(
            metrics=metrics,
            driver=closed_loop_driver(busy, wall),
            attempted=n + files_got + files_degraded,
            failed=failed,
            checks={"reads_sha256": self.reads.result(),
                    "stored_bytes": stored,
                    "distinct_providers": distinct},
            detail={
                "setup_s_each": setup_times,
                "file_windows": self.windows,
                "window_bytes": self.window,
                "samples": {"put_windows": len(puts), "get_windows": len(gets),
                            "degraded_windows": len(degraded),
                            "puts": files_put, "gets": files_got,
                            "degraded_gets": files_degraded},
                "lost_node": lost.name,
                "remote_retries": retries,
            },
        )


WORKLOADS = {
    "small-ops": (SmallOps, SMALL_WHY),
    "bulk-rs": (BulkRS, BULK_WHY),
    "stream-mem": (StreamMem, STREAM_WHY),
}
