"""Per-layer ledger, recorded from outside the program.

Nothing under ``src/`` records spans for the benchmark.  Instead
:class:`Ledger` wraps the public functions of each layer module and patches
the name the caller looks up: a method on its class, or a module-level
function in every ``repro`` module that imported it by name (``inject`` /
``remove`` and ``blob_checksum`` are imported that way into
``core.distributor`` and ``core.streaming``).

Accounting rules:

* Each thread keeps a stack of open layer spans.  A layer's *self time*
  is its span's duration minus the spans nested under it on the same
  thread.  A call into the layer already on top of the stack (a layer
  calling itself) is not a new span.
* Time a thread spends blocked on another thread (``Future.result``,
  ``Thread.join``) is a *wait*: it is not charged to the enclosing layer.
* Every measured client operation runs inside :meth:`Ledger.op`.  Its
  context follows work handed to the transport pool and to the streaming
  window thread, so a helper thread's spans count for the operation that
  caused them.  ``other`` is the part of an operation's wall time that no
  layer span of that operation covers, on any thread: the distributor's
  own glue, plus waits that no helper span explains.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import os
import sys
import threading
import time

_perf = time.perf_counter

#: Pseudo-layer for time blocked on another thread.
WAIT = "wait"

#: Layers reported with ``.calls`` and ``.busy_ms``.
CALL_LAYERS = ("access_control", "placement", "tables", "health", "obs")


class _Ctx:
    """Intervals covered by layer spans on behalf of one client operation."""

    __slots__ = ("intervals",)

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []


class _ThreadState:
    __slots__ = ("stack", "ctx", "seg_start", "busy", "calls", "counts",
                 "lock_depth", "lock_t0")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, t0, child_time]
        self.ctx: _Ctx | None = None
        self.seg_start = 0.0
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.lock_depth = 0
        self.lock_t0 = 0.0


def _attributed(stack: list) -> bool:
    return bool(stack) and stack[-1][0] != WAIT


def _union_within(intervals: list[tuple[float, float]],
                  lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class TracedLock:
    """Stand-in for ``CloudDataDistributor.op_lock`` (an ``RLock``).

    The outermost acquire on a thread is an ``op_lock`` span whose self
    time is the wait; hold time runs from that acquire to the matching
    release.
    """

    def __init__(self, ledger: "Ledger", lock) -> None:
        self._ledger = ledger
        self._lock = lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        st = self._ledger._state()
        if st.lock_depth:
            got = self._lock.acquire(blocking, timeout)
            if got:
                st.lock_depth += 1
            return got
        self._ledger._push(st, "op_lock")
        try:
            got = self._lock.acquire(blocking, timeout)
        finally:
            self._ledger._pop(st)
        if got:
            st.lock_depth = 1
            st.lock_t0 = _perf()
        return got

    def release(self) -> None:
        st = self._ledger._state()
        st.lock_depth -= 1
        if st.lock_depth == 0:
            st.counts["op_lock.hold_s"] = (
                st.counts.get("op_lock.hold_s", 0.0) + _perf() - st.lock_t0
            )
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class Ledger:
    """Install wrappers, attribute time per layer, and report the ledger."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.op_wall = 0.0
        self.op_covered = 0.0
        self._op_lock = threading.Lock()

    # -- per-thread span stack -------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
            return st

    def _push(self, st: _ThreadState, layer: str) -> None:
        now = _perf()
        was = _attributed(st.stack)
        st.stack.append([layer, now, 0.0])
        if st.ctx is not None and was != _attributed(st.stack):
            self._transition(st, was, now)

    def _pop(self, st: _ThreadState) -> None:
        now = _perf()
        was = _attributed(st.stack)
        layer, t0, child = st.stack.pop()
        duration = now - t0
        if layer != WAIT:
            st.busy[layer] = st.busy.get(layer, 0.0) + duration - child
            st.calls[layer] = st.calls.get(layer, 0) + 1
        if st.stack:
            st.stack[-1][2] += duration
        if st.ctx is not None and was != _attributed(st.stack):
            self._transition(st, was, now)

    @staticmethod
    def _transition(st: _ThreadState, was: bool, now: float) -> None:
        if was:
            st.ctx.intervals.append((st.seg_start, now))
        else:
            st.seg_start = now

    def _count(self, key: str, amount: float = 1) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + amount

    def top_layer(self) -> str | None:
        for frame in reversed(self._state().stack):
            if frame[0] != WAIT:
                return frame[0]
        return None

    # -- client operations ---------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Bracket one client operation on the calling thread."""
        st = self._state()
        ctx = _Ctx()
        st.ctx = ctx
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            st.ctx = None
            covered = _union_within(ctx.intervals, t0, t1)
            with self._op_lock:
                self.op_wall += t1 - t0
                self.op_covered += covered

    # -- wrapping ------------------------------------------------------------

    def span(self, layer: str, fn, after=None, errors: str | None = None):
        """*fn* wrapped as a *layer* span; ``after(counts, args, result)``
        records the call's work once it returns, and a call that raises
        adds one to the *errors* count.

        This is :meth:`_push`/:meth:`_pop` inlined for a layer (never
        WAIT): the wrapper runs on every hot-path call, so its cost is
        the tracing overhead.
        """
        local, new_state = self._local, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, _perf(), 0.0]
            if st.ctx is not None and not _attributed(stack):
                st.seg_start = frame[1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors is not None:
                    st.counts[errors] = st.counts.get(errors, 0) + 1
                raise
            finally:
                now = _perf()
                stack.pop()
                duration = now - frame[1]
                st.busy[layer] = st.busy.get(layer, 0.0) + duration - frame[2]
                st.calls[layer] = st.calls.get(layer, 0) + 1
                if stack:
                    stack[-1][2] += duration
                if st.ctx is not None and not _attributed(stack):
                    st.ctx.intervals.append((st.seg_start, now))
            if after is not None:
                after(st.counts, args, result)
            return result

        return wrapper

    def _waiting(self, fn):
        """*fn* wrapped as a WAIT span (blocked on another thread)."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = ledger._state()
            ledger._push(st, WAIT)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._pop(st)

        return wrapper

    def _patch_attr(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def wrap_methods(self, cls, names, layer: str, after=None,
                     errors: str | None = None) -> None:
        for name in names:
            self._patch_attr(cls, name, self.span(
                layer, cls.__dict__[name], after, errors))

    def wrap_function(self, fn, layer: str, after=None, *, span=True) -> None:
        """Patch *fn* in every ``repro`` module that holds it by name."""
        if span:
            new = self.span(layer, fn, after)
        else:
            @functools.wraps(fn)
            def new(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self._state().counts, args, result)
                return result
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        """Zero every accumulator (after set-up, before measuring)."""
        with self._states_lock:
            for st in self._states:
                st.busy.clear()
                st.calls.clear()
                st.counts.clear()
        with self._op_lock:
            self.op_wall = self.op_covered = 0.0

    def trace_distributor(self, dist) -> None:
        """Route *dist*'s critical section through a :class:`TracedLock`."""
        if not isinstance(dist.op_lock, TracedLock):
            dist.op_lock = TracedLock(self, dist.op_lock)

    # -- installation ----------------------------------------------------------

    def install(self) -> "Ledger":
        # Import every module that may hold a wrapped function by name
        # before wrap_function scans for those names.
        import repro.core.distributor  # noqa: F401
        import repro.net.cluster  # noqa: F401
        import repro.net.server  # noqa: F401
        from repro.core import chunking, misleading
        from repro.core.access_control import AccessController
        from repro.core.cache import ChunkCache
        from repro.core.journal import IntentJournal
        from repro.core.placement import PlacementPolicy
        from repro.core import streaming
        from repro.core.tables import (
            ChunkTable, ClientEntry, ClientTable, CloudProviderTable,
        )
        from repro.health.monitor import HealthMonitor
        from repro.net import protocol
        from repro.net.remote import RemoteProvider
        from repro.obs.events import EventLog
        from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
        from repro.obs.trace import Tracer
        from repro.providers import base
        from repro.providers.disk import DiskProvider
        from repro.providers.memory import InMemoryProvider
        from repro.raid import codecs

        def add(counts, key, amount):
            counts[key] = counts.get(key, 0) + amount

        self.wrap_methods(AccessController,
                          ("authenticate", "is_authorized"), "access_control")
        self.wrap_methods(PlacementPolicy,
                          ("candidates", "stripe_group", "max_stripe_width"),
                          "placement")
        self.wrap_methods(CloudProviderTable,
                          ("add", "get", "index_of", "record_store",
                           "record_remove"), "tables")
        self.wrap_methods(ChunkTable,
                          ("add", "get", "by_virtual_id", "remove"), "tables")
        self.wrap_methods(ClientTable, ("add", "get"), "tables")
        self.wrap_methods(ClientEntry,
                          ("refs_for_file", "ref_for_chunk", "filenames"),
                          "tables")
        self.wrap_methods(HealthMonitor,
                          ("record_success", "record_failure", "state",
                           "healthy", "suspect", "down", "is_usable"),
                          "health")
        self.wrap_methods(MetricsRegistry, ("counter", "gauge", "histogram"),
                          "obs")
        self.wrap_methods(Counter, ("inc",), "obs")
        self.wrap_methods(Gauge, ("set", "inc", "dec"), "obs")
        self.wrap_methods(Histogram, ("observe",), "obs")
        self.wrap_methods(Tracer, ("span", "capture", "adopt", "wire_context"),
                          "obs")
        self.wrap_methods(EventLog, ("emit",), "obs")

        self.wrap_methods(IntentJournal, ("begin", "extend", "commit", "abort"),
                          "journal",
                          lambda c, a, r: add(c, "journal.records", 1))

        def cache_get(counts, args, result):
            add(counts, "cache.misses" if result is None else "cache.hits", 1)

        self.wrap_methods(ChunkCache, ("get",), "cache", cache_get)
        self.wrap_methods(ChunkCache, ("put", "invalidate", "clear"), "cache")

        self.wrap_methods(
            codecs.ErasureCodec, ("encode",), "codecs.encode",
            lambda c, a, r: add(c, "codecs.encode_bytes", len(a[1])),
        )
        for cls in (codecs.RaidCodec, codecs.RSStripeCodec, codecs.AontRSCodec):
            self.wrap_methods(
                cls, ("decode",), "codecs.decode",
                lambda c, a, r: add(c, "codecs.decode_bytes", len(r)),
            )

        self.wrap_function(
            chunking.split, "chunking",
            lambda c, a, r: add(c, "chunking.bytes", len(a[0])),
        )
        self.wrap_function(
            chunking.join, "chunking",
            lambda c, a, r: add(c, "chunking.bytes", len(r)),
        )
        self.wrap_function(
            chunking.read_into, "chunking",
            lambda c, a, r: add(c, "chunking.bytes", r),
        )
        self.wrap_function(
            base.blob_checksum, "checksum",
            lambda c, a, r: add(c, "checksum.bytes", len(a[0])),
        )
        self.wrap_function(
            misleading.inject, "misleading",
            lambda c, a, r: add(c, "misleading.bytes", len(a[0])),
        )
        self.wrap_function(
            misleading.remove, "misleading",
            lambda c, a, r: add(c, "misleading.bytes", len(a[0])),
        )

        # protocol: frames built or parsed, and the CPU spent framing.  Time
        # blocked in a socket read stays with the caller (the remote layer
        # waiting on its server), so read_frame/recv_frame are counted, not
        # timed.
        def framed(nbytes):
            def after(counts, args, result):
                add(counts, "protocol.frames", 1)
                add(counts, "protocol.bytes", nbytes(args))
            return after

        self.wrap_function(protocol.encode_frame, "protocol",
                           framed(lambda a: len(a[2]) if len(a) > 2 else 0))
        self.wrap_function(protocol.frame_segments, "protocol",
                           framed(lambda a: len(a[2]) if len(a) > 2 else 0))
        self.wrap_function(protocol.frame_segments_multi, "protocol",
                           framed(lambda a: sum(len(p) for p in a[2])))
        for fn in (protocol.encode_multi_put, protocol.encode_multi_put_parts,
                   protocol.decode_multi_put, protocol.encode_batch_results,
                   protocol.decode_batch_results, protocol.encode_keys,
                   protocol.decode_keys, protocol.encode_stream_count,
                   protocol.decode_stream_count):
            self.wrap_function(fn, "protocol")

        def received(counts, args, frame):
            if frame is not None:
                add(counts, "protocol.frames", 1)
                add(counts, "protocol.bytes", len(frame.payload))

        self.wrap_function(protocol.read_frame, "protocol", received,
                           span=False)
        self.wrap_function(protocol.recv_frame, "protocol", received,
                           span=False)

        self.wrap_methods(RemoteProvider,
                          ("put", "get", "put_many", "get_many", "put_stream",
                           "get_stream", "delete", "keys", "head"),
                          "remote", errors="remote.failed")

        def stored(counts, args, result):
            add(counts, "provider.puts", 1)
            add(counts, "provider.bytes_written", len(args[2]))

        def fetched(counts, args, result):
            add(counts, "provider.gets", 1)

        for cls in (InMemoryProvider, DiskProvider):
            self.wrap_methods(cls, ("put",), "provider", stored)
            self.wrap_methods(cls, ("get",), "provider", fetched)
            self.wrap_methods(cls, ("delete",), "provider")

        self._wrap_streaming(streaming)
        self._wrap_fsync()
        self._wrap_waits()
        return self

    def _wrap_streaming(self, streaming) -> None:
        ledger = self
        put_stream = streaming.put_stream
        get_stream = streaming.get_stream
        self._patch_attr(streaming, "put_stream",
                         self.span("streaming", put_stream))
        eager = self.span("streaming", get_stream)

        def traced_get_stream(*args, **kwargs):
            inner = eager(*args, **kwargs)

            def generate():
                while True:
                    st = ledger._state()
                    ledger._push(st, "streaming")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ledger._pop(st)
                    yield item

            return generate()

        self._patch_attr(streaming, "get_stream",
                         functools.wraps(get_stream)(traced_get_stream))

    def _wrap_fsync(self) -> None:
        """Charge each ``os.fsync`` to the innermost layer that asked."""
        ledger = self
        original = os.fsync

        @functools.wraps(original)
        def fsync(fd):
            layer = ledger.top_layer()
            if layer is not None:
                ledger._count(f"{layer}.fsyncs")
            return original(fd)

        self._patch_attr(os, "fsync", fsync)

    def _wrap_waits(self) -> None:
        """Time blocked on helper threads, and hand helpers the op context."""
        ledger = self
        for owner, name in ((concurrent.futures.Future, "result"),
                            (threading.Thread, "join")):
            self._patch_attr(owner, name,
                             self._waiting(owner.__dict__[name]))

        submit = concurrent.futures.ThreadPoolExecutor.submit

        def traced_submit(executor, fn, /, *args, **kwargs):
            ctx = ledger._state().ctx
            if ctx is None:
                return submit(executor, fn, *args, **kwargs)

            def run(*a, **k):
                st = ledger._state()
                previous, st.ctx = st.ctx, ctx
                try:
                    return fn(*a, **k)
                finally:
                    st.ctx = previous

            return submit(executor, run, *args, **kwargs)

        self._patch_attr(concurrent.futures.ThreadPoolExecutor, "submit",
                         traced_submit)

        start = threading.Thread.start

        def traced_start(thread):
            ctx = ledger._state().ctx
            if ctx is not None:
                run = thread.run

                def run_in_ctx():
                    ledger._state().ctx = ctx
                    run()

                thread.run = run_in_ctx
            return start(thread)

        self._patch_attr(threading.Thread, "start", traced_start)

    # -- report ----------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for target, source in ((busy, st.busy), (calls, st.calls),
                                   (counts, st.counts)):
                for key, value in list(source.items()):
                    target[key] = target.get(key, 0) + value
        return busy, calls, counts

    def metrics(self, remote_retries: float) -> dict[str, float]:
        """Every per-layer metric except the ``driver`` rows."""
        busy, calls, counts = self.totals()

        def ms(layer):
            return busy.get(layer, 0.0) * 1e3

        def mbps(nbytes, seconds):
            return nbytes / seconds / 1e6 if seconds > 0 else 0.0

        out: dict[str, float] = {}
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.busy_ms"] = ms(layer)
        out["op_lock.wait_ms"] = ms("op_lock")
        out["op_lock.hold_ms"] = counts.get("op_lock.hold_s", 0.0) * 1e3
        out["misleading.busy_ms"] = ms("misleading")
        out["misleading.bytes"] = counts.get("misleading.bytes", 0)
        out["journal.records"] = counts.get("journal.records", 0)
        out["journal.fsyncs"] = counts.get("journal.fsyncs", 0)
        out["journal.busy_ms"] = ms("journal")
        hits = counts.get("cache.hits", 0)
        misses = counts.get("cache.misses", 0)
        out["cache.hits"] = hits
        out["cache.misses"] = misses
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for kind in ("encode", "decode"):
            seconds = busy.get(f"codecs.{kind}", 0.0)
            out[f"codecs.{kind}_ms"] = seconds * 1e3
            out[f"codecs.{kind}_mbps"] = mbps(
                counts.get(f"codecs.{kind}_bytes", 0), seconds)
        for layer in ("chunking", "checksum"):
            out[f"{layer}.busy_ms"] = ms(layer)
            out[f"{layer}.mbps"] = mbps(counts.get(f"{layer}.bytes", 0),
                                        busy.get(layer, 0.0))
        out["protocol.frames"] = counts.get("protocol.frames", 0)
        out["protocol.bytes"] = counts.get("protocol.bytes", 0)
        out["protocol.busy_ms"] = ms("protocol")
        out["remote.calls"] = calls.get("remote", 0)
        out["remote.busy_ms"] = ms("remote")
        out["remote.retries"] = remote_retries
        out["remote.failed"] = counts.get("remote.failed", 0)
        out["provider.puts"] = counts.get("provider.puts", 0)
        out["provider.gets"] = counts.get("provider.gets", 0)
        out["provider.busy_ms"] = ms("provider")
        out["provider.bytes_written"] = counts.get("provider.bytes_written", 0)
        out["provider.fsyncs"] = counts.get("provider.fsyncs", 0)
        out["streaming.self_ms"] = ms("streaming")
        other = max(0.0, self.op_wall - self.op_covered)
        out["other.ms"] = other * 1e3
        out["other.share"] = other / self.op_wall if self.op_wall else 0.0
        return out
