"""The distributor's one data path: windowed upload and retrieval.

The paper has one upload algorithm -- ``split()`` then ``distribute()``
(Section VI) -- and one retrieval chain (Client Table -> Chunk Table ->
Cloud Provider Table -> ``get``).  This module is both.  It moves a file
in windows of ``window_chunks`` chunks.  Each window is read, encoded,
placed and transferred before the next one is read, so peak memory is
O(window), not O(file).

* ``upload_file(data)`` / ``get_file`` are the one-window case: the whole
  file is a single window.
* ``put_stream(fileobj)`` / ``get_stream`` bound the window, for files
  larger than memory.

Every distributor invariant is reused, not reimplemented: placement and
id allocation run under the op lock via ``_plan_chunk``, write-path
failover via ``_recover_plan``, the batched wire transfer via
``_transfer_plans`` / ``_prefetch_jobs``, checksum verification via
``_assemble_job``, commit via ``_commit_plan``.

The wire cooperates: a provider batch whose mean shard is at least
``STREAM_SEGMENT_THRESHOLD`` travels as one frame per shard over a
STREAM_PUT/STREAM_GET session instead of one aggregate MULTI_PUT/
MULTI_GET payload, and the server rolls back a window whose sender dies
mid-stream.

Upload atomicity: committed windows stay *invisible* (no client ref
points at their chunks) until the final commit, and any failure deletes
every chunk the upload created.  One caveat is inherent to streaming:
chunk *metadata* (tables, checksums) is O(chunks), roughly half a
kilobyte per chunk -- multi-gigabyte files should raise ``chunk_size``
(e.g. to 1 MiB) so metadata stays small while the byte path stays
O(window).
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.core import chunking
from repro.core.errors import ReproError
from repro.core.privacy import PrivacyLevel
from repro.core.tables import FileChunkRef
from repro.util.crash import crashpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import (
        CloudDataDistributor,
        FileReceipt,
        _ChunkPlan,
        _FetchJob,
    )
    from repro.crypto.stream import StreamCipher
    from repro.raid.codecs import CodecSpec
    from repro.raid.striping import RaidLevel

#: Chunks per in-flight window of ``put_stream``/``get_stream``.  Uploads
#: pipeline windows at depth 1 (the previous window transfers while the
#: next is read and planned), so peak upload memory is roughly
#: ``window_chunks * chunk_size`` for the read buffer plus *two* windows'
#: encoded shards (times the RAID storage overhead).
DEFAULT_WINDOW_CHUNKS = 8


def _transfer(
    dist: "CloudDataDistributor", plans: "list[_ChunkPlan]", parallel: bool
) -> "list[_ChunkPlan]":
    """One window's wire phase: batched puts, then failover.

    Returns the plans that could not land k shards anywhere.
    """
    window = dist._parallel_window() if parallel else contextlib.nullcontext()
    with window, dist._phase("upload", "transfer"):
        dist._transfer_plans(plans)
        return [plan for plan in plans if dist._recover_plan(plan)]


class _WindowTransfer:
    """A non-final window's transfer phase, running on its own thread.

    Overlaps window N's (lock-free) wire transfer with reading and
    planning window N+1 -- the window buffer is free to refill as soon as
    planning copied its bytes into the plans' shards.  The final window
    transfers inline: there is nothing left to overlap it with.
    """

    def __init__(self, dist: "CloudDataDistributor",
                 plans: "list[_ChunkPlan]") -> None:
        self._dist = dist
        self.plans = plans
        self.lost: "list[_ChunkPlan]" = []
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="stream-window-transfer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            self.lost = _transfer(self._dist, self.plans, parallel=False)
        except BaseException as exc:  # noqa: BLE001 - re-raised by join()
            self._error = exc

    def join(self) -> "list[_ChunkPlan]":
        """Wait for the wire to settle; re-raise a transport failure."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self.lost

    def wait(self) -> None:
        """Join without raising (abort path: outcome no longer matters)."""
        self._thread.join()


def _bytes_window(data: bytes, pl: PrivacyLevel, chunk_size: int):
    """The whole of *data* as one window of ``split()`` chunks."""
    chunks = chunking.split(data, pl, chunk_size=chunk_size)
    yield [chunk.payload for chunk in chunks], len(data), True


def _read_windows(fileobj, chunk_size: int, window_chunks: int):
    """Yield ``(payloads, nbytes, last)`` per window read from *fileobj*.

    Payloads are chunk-sized views into one reused buffer, so chunk
    boundaries are byte-identical to ``split()`` of the whole file.  An
    empty file still yields one empty chunk, same as ``split()``.
    """
    view = memoryview(bytearray(window_chunks * chunk_size))
    first = True
    while True:
        filled = chunking.read_into(fileobj, view)
        if filled == 0 and not first:
            return
        first = False
        payloads = [
            view[off : min(off + chunk_size, filled)]
            for off in range(0, filled, chunk_size)
        ] or [b""]
        # read_into only under-fills at EOF.
        last = filled < len(view)
        yield payloads, filled, last
        if last:
            return


def upload(
    dist: "CloudDataDistributor",
    client: str,
    pl: PrivacyLevel,
    filename: str,
    source,
    raid_level: "RaidLevel | None" = None,
    stripe_width: int | None = None,
    codec: "CodecSpec | str | None" = None,
    misleading_fraction: float = 0.0,
    chunk_size: int | None = None,
    window_chunks: int | None = None,
    cipher: "StreamCipher | None" = None,
    parallel: bool = False,
) -> "FileReceipt":
    """Split and distribute *source* window by window (already authorized).

    *source* is either bytes -- the whole file is one window -- or a
    readable binary stream, read ``window_chunks`` chunks at a time.
    Per window: plan under the op lock (the first window also checks the
    name, resolves the codec and reserves the name), log the window's
    shard keys in the intent journal, transfer lock-free, commit the
    tables.  The last window's commit also publishes the file, commits
    the journal transaction and releases the name, all in one critical
    section.
    """
    from repro.core.distributor import FileReceipt

    if window_chunks is not None and window_chunks < 1:
        raise ValueError(f"window_chunks must be >= 1, got {window_chunks}")
    if chunk_size is None:
        chunk_size = dist.chunk_policy.chunk_size(pl)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(source, (bytes, bytearray, memoryview)):
        windows = _bytes_window(source, pl, chunk_size)
    else:
        windows = _read_windows(
            source, chunk_size, window_chunks or DEFAULT_WINDOW_CHUNKS
        )

    codec_obj = None
    load: dict[str, int] = {}
    txn = None
    reserved = False
    # Windows planned but not yet in the tables, oldest first; the
    # window in flight on the wire (depth-1 pipeline), if any.
    uncommitted: "deque[list[_ChunkPlan]]" = deque()
    inflight: "tuple[list, _WindowTransfer] | None" = None
    refs: list[FileChunkRef] = []  # committed windows, not yet visible
    serial = total_bytes = 0

    def transferred(plans, logged, lost) -> None:
        """Settle one window's wire outcome in the journal."""
        if lost:
            raise lost[0].first_error
        if txn is not None:
            # Write-path failover may have relocated shards since the
            # intent was logged; record the new homes so rollback can
            # still find every object.
            logged = set(logged)
            moved = [
                pair
                for plan in plans
                for pair in dist._plan_put_keys(plan)
                if pair not in logged
            ]
            if moved:
                dist.journal.extend(txn, moved)
        crashpoint("upload.transferred")

    def commit(plans) -> None:
        """Record a transferred window in the tables (lock held)."""
        for plan in plans:
            refs.append(
                FileChunkRef(
                    filename=filename,
                    serial=plan.serial,
                    privacy_level=pl,
                    chunk_index=dist._commit_plan(plan),
                )
            )
        uncommitted.popleft()

    with dist.tracer.span("distributor.upload", client=client):
        try:
            for payloads, nbytes, last in windows:
                plans = []
                # -- plan (critical section): placement, rng, id draws --
                with dist.op_lock, dist._phase("upload", "plan"):
                    if codec_obj is None:
                        dist._check_new_filename(client, filename)
                        codec_obj = dist._resolve_codec(
                            pl, raid_level, stripe_width, codec
                        )
                        dist._inflight_uploads.setdefault(
                            client, set()
                        ).add(filename)
                        reserved = True
                        # Working per-provider load copy, advanced as
                        # chunks are planned, so placement is the same
                        # whatever the window size.
                        load = dist._provider_load()
                    try:
                        for payload in payloads:
                            if cipher is not None:
                                payload = cipher.encrypt(payload, nonce=serial)
                            elif misleading_fraction > 0:
                                # inject() manipulates bytes; window
                                # views must not leak into stored
                                # positions.
                                payload = bytes(payload)
                            plan = dist._plan_chunk(
                                payload, pl, serial, codec_obj,
                                misleading_fraction, load=load,
                            )
                            for name in plan.assigned:
                                load[name] = load.get(name, 0) + 1
                            plans.append(plan)
                            serial += 1
                    except Exception:
                        for plan in plans:
                            dist.ids.release(plan.vid)
                        raise
                uncommitted.append(plans)

                # -- intent (durable): every key this window creates --
                logged = [
                    pair for plan in plans
                    for pair in dist._plan_put_keys(plan)
                ]
                if dist.journal is not None:
                    if txn is None:
                        txn = dist.journal.begin(
                            "upload", client, filename, put_keys=logged
                        )
                        crashpoint("upload.intent_logged")
                    else:
                        dist.journal.extend(txn, logged)

                # The previous window's wire phase ran concurrently with
                # the read+plan above; settle and commit it before this
                # window takes its place (bounds memory to two windows'
                # shards and keeps commits in serial order).
                if inflight is not None:
                    prev_logged, transfer = inflight
                    transferred(transfer.plans, prev_logged, transfer.join())
                    with dist.op_lock, dist._phase("upload", "commit"):
                        commit(transfer.plans)
                    inflight = None
                total_bytes += nbytes
                if last:
                    transferred(plans, logged, _transfer(dist, plans, parallel))
                    break
                inflight = (logged, _WindowTransfer(dist, plans))
            else:
                # The source ended on a window boundary: the last full
                # window is still on the wire.
                if inflight is not None:
                    prev_logged, transfer = inflight
                    plans = transfer.plans
                    transferred(plans, prev_logged, transfer.join())
                    inflight = None

            # -- commit + publish (critical section): the file becomes
            # visible, its journal transaction commits and its name
            # reservation is released in one step.
            with dist.op_lock, dist._phase("upload", "commit"):
                commit(plans)
                if txn is not None:
                    dist.journal.commit(
                        txn,
                        {
                            "client": client,
                            "filename": filename,
                            "remove": [],
                            "add": [
                                dist._chunk_spec(client, ref) for ref in refs
                            ],
                        },
                    )
                dist.client_table.get(client).chunk_refs.extend(refs)
                dist._release_upload_slot(client, filename)
                reserved = False
            crashpoint("upload.committed")
        except Exception as exc:
            # Erase the upload's whole fleet/table footprint, best effort.
            if inflight is not None:
                inflight[1].wait()  # settle the wire before rolling back
            for window in uncommitted:
                for plan in window:
                    dist._rollback_plan(plan)
            if refs:
                with dist.op_lock:
                    for ref in refs:
                        dist._delete_chunk(ref)
            if txn is not None:
                dist.journal.abort(txn)
            if isinstance(exc, (ReproError, OSError)):
                dist._record_op("upload", client, filename, None,
                                ok=False, detail=type(exc).__name__)
            raise
        finally:
            if reserved:
                dist._release_upload_slot(client, filename)

    dist._record_op("upload", client, filename, None, ok=True)
    return FileReceipt(
        filename=filename,
        privacy_level=pl,
        chunk_count=serial,
        file_size=total_bytes,
        raid_level=codec_obj.raid_level,
        stripe_width=codec_obj.n,
        codec=codec_obj.label,
    )


def put_stream(
    dist: "CloudDataDistributor",
    client: str,
    password: str,
    filename: str,
    fileobj,
    level: "PrivacyLevel | int",
    raid_level: "RaidLevel | None" = None,
    stripe_width: int | None = None,
    codec: "CodecSpec | str | None" = None,
    misleading_fraction: float = 0.0,
    chunk_size: int | None = None,
    window_chunks: int = DEFAULT_WINDOW_CHUNKS,
    cipher: "StreamCipher | None" = None,
) -> "FileReceipt":
    """Upload *fileobj* (a readable binary stream) in bounded windows.

    Chunk boundaries are byte-identical to ``split(data)`` of the whole
    file, and placement is identical to ``upload_file`` of the same
    bytes, so ``get_file`` and ``get_stream`` read streamed uploads
    interchangeably.  With *cipher*, each chunk is encrypted with
    ``nonce=serial`` before placement (pass the same cipher to
    :func:`get_stream`).  Returns the same :class:`FileReceipt` as
    ``upload_file``.
    """
    pl = dist._authorize_upload(client, password, filename, level)
    return upload(
        dist, client, pl, filename, fileobj,
        raid_level=raid_level, stripe_width=stripe_width, codec=codec,
        misleading_fraction=misleading_fraction, chunk_size=chunk_size,
        window_chunks=window_chunks, cipher=cipher,
    )


def read(
    dist: "CloudDataDistributor",
    client: str,
    password: str,
    filename: str,
    window_chunks: int | None = None,
    cipher: "StreamCipher | None" = None,
    parallel: bool = False,
) -> Iterator[bytes]:
    """Resolve and authorize *filename* now; yield its chunks lazily.

    Resolution walks the paper's chain under the op lock, and errors
    raise here, not in the generator (both are audited).  Shard traffic
    happens ``window_chunks`` chunks at a time (``None``: the whole file
    is one window): one batched data-shard read per provider, a degraded
    decode per chunk, then a cache fill.  Each window's shard bytes are
    released before the next window is fetched.
    """
    if window_chunks is not None and window_chunks < 1:
        raise ValueError(f"window_chunks must be >= 1, got {window_chunks}")
    try:
        with dist.op_lock, dist._phase("get_file", "resolve"):
            refs = dist.client_table.get(client).refs_for_file(filename)
            dist._authorize(client, password, refs[0].privacy_level)
            jobs = [dist._fetch_job(ref, filename) for ref in refs]
    except ReproError as exc:
        dist._record_op("get_file", client, filename, None,
                        ok=False, detail=type(exc).__name__)
        raise
    return _fetch_windows(
        dist, client, filename, jobs, window_chunks or len(jobs),
        cipher, parallel,
    )


def _fetch_windows(
    dist: "CloudDataDistributor",
    client: str,
    filename: str,
    jobs: "list[_FetchJob]",
    window_chunks: int,
    cipher: "StreamCipher | None",
    parallel: bool,
) -> Iterator[bytes]:
    """The lazy half of :func:`read`: fetch, decode and yield per window."""
    try:
        for start in range(0, len(jobs), window_chunks):
            batch = jobs[start : start + window_chunks]
            window = (
                dist._parallel_window() if parallel
                else contextlib.nullcontext()
            )
            with window, dist._phase("get_file", "fetch"):
                payloads = dist._read_jobs(batch)
            if dist.cache is not None:
                with dist.op_lock, dist._phase("get_file", "cache_fill"):
                    dist._fill_cache(batch, payloads)
            for job in batch:
                job.cached = None  # no payload outlives its window
            for job, payload in zip(batch, payloads):
                if cipher is not None:
                    payload = cipher.decrypt(payload, nonce=job.serial)
                yield payload
    except ReproError as exc:
        dist._record_op("get_file", client, filename, None,
                        ok=False, detail=type(exc).__name__)
        raise
    dist._note_audit(
        vids=[job.entry.virtual_id for job in jobs],
        providers={name for job in jobs for name in job.names},
    )
    dist._record_op("get_file", client, filename, None, ok=True)


def get_stream(
    dist: "CloudDataDistributor",
    client: str,
    password: str,
    filename: str,
    window_chunks: int = DEFAULT_WINDOW_CHUNKS,
    cipher: "StreamCipher | None" = None,
) -> Iterator[bytes]:
    """Yield *filename*'s plaintext chunk by chunk with O(window) memory.

    Resolution and authorization run eagerly (errors raise here, not in
    the generator); shard traffic happens lazily, ``window_chunks``
    chunks at a time.  ``b"".join(...)`` of the yields equals
    ``get_file``'s result.
    """
    return read(dist, client, password, filename,
                window_chunks=window_chunks, cipher=cipher)
