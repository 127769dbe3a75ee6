"""Run one benchmark workload against ``repro.core.distributor``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-ops --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with the per-layer ledger installed and prints every per-layer
metric.  The line before the result carries the detail: provenance, the
correctness checks, sample counts and (traced) the end-to-end figures
measured under tracing, from which ``perfbench/report.py`` takes the
tracing overhead.  The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program is built from ``src/`` of the same checkout; without it the
run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "_work"

#: Every end-to-end metric: its unit and what it means on each workload.
#: The ones BENCHMARK.json lists are gated.  The p99s vary with the
#: host's CPU steal and disk contention far beyond any allowed bound, so
#: they are measured and reported (detail line, report.py) but not gated.
METRICS = {
    "setup_s": ("s", "median of 5 stack builds: servers, distributor, "
                     "client registration, initial population and warm-up"),
    "read_p50_ms": ("ms", "small-ops: get latency from intended send at "
                          "200 op/s; bulk-rs: one 2 MiB get_file; "
                          "stream-mem: one upload window (8 chunks) pulled "
                          "from get_stream. Median over the phase's windows"),
    "read_p99_ms": ("ms", "99th percentile of the same reads (small-ops: "
                          "median over windows of each window's p99)"),
    "write_p50_ms": ("ms", "small-ops: put/update/delete latency from "
                           "intended send at 200 op/s; bulk-rs: one 2 MiB "
                           "upload_file; stream-mem: one upload window "
                           "taken by put_stream. Median over windows"),
    "write_p99_ms": ("ms", "99th percentile of the same writes"),
    "max_rate_ops": ("op/s", "small-ops: offered rate where half the short "
                             "staircase trials keep all-op p99 <= 50 ms, "
                             ">= 95% achieved and no failure; closed-loop "
                             "workloads: requests one client completes per "
                             "busy second"),
    "put_mbps": ("MB/s", "user bytes stored per second of client time in "
                         "puts, median over windows (small-ops: median "
                         "over puts of bytes / service time)"),
    "get_mbps": ("MB/s", "the same for healthy gets"),
    "degraded_get_mbps": ("MB/s", "the same after one provider lost every "
                                  "blob (small-ops reads with the cache "
                                  "cleared)"),
    "peak_rss_mib": ("MiB", "peak resident memory of the run's process "
                            "(client, chunk servers, in-memory providers)"),
    "stored_bytes_ratio": ("ratio", "bytes held by providers per live "
                                    "user byte"),
}


def _load_repro():
    """Import the program from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print("perfbench: repro imported from outside this checkout",
              file=sys.stderr)
        raise SystemExit(2)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _fsync_probe(directory: Path, rounds: int = 50) -> dict:
    """fsync latency of *directory*'s filesystem: append 200 B, fsync."""
    path = directory / "fsync-probe"
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        for _ in range(rounds):
            os.write(fd, b"x" * 200)
            t0 = time.perf_counter()
            os.fsync(fd)
            times.append(time.perf_counter() - t0)
    finally:
        os.close(fd)
        path.unlink()
    times.sort()
    return {"p50_ms": times[rounds // 2] * 1e3,
            "p99_ms": times[int(rounds * 0.99)] * 1e3, "rounds": rounds}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> dict:
    """Manifest of the measured program: SHA-256 and size of every source."""
    files = sorted((ROOT / "src").rglob("*.py"))
    sha = hashlib.sha256()
    total = 0
    for path in files:
        data = path.read_bytes()
        total += len(data)
        sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        sha.update(hashlib.sha256(data).digest())
    return {"sha256": sha.hexdigest(), "files": len(files), "bytes": total}


def provenance(args, workload: str, fsync: dict) -> dict:
    import numpy

    from repro.net.server import ChunkServer

    fs = _fs_type(WORKDIR)
    return {
        "commit": _commit(),
        "source": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "host": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "workload": workload,
        "server_class": ChunkServer.__name__,
        "codecs": {"small-ops": "raid5 (width 4 on the PL>=2 providers)",
                   "bulk-rs": "rs(6,3)", "stream-mem": "raid5 (width 4)"},
        "journal_dir": {"path": "perfbench/_work/journal-*", "fs": fs,
                        "flush": "os.fsync per record (IntentJournal as "
                                 "shipped)",
                        "fsync_probe": fsync},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_repro()
    spec = _spec()
    names = {w["name"]: w["why"] for w in spec["workloads"]}
    from workloads import WORKLOADS, Options

    if args.workload not in names or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(names)}")

    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger().install()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    fsync = _fsync_probe(workdir)
    cls, why = WORKLOADS[args.workload]
    try:
        outcome = cls(Options(seed=args.seed, seconds=args.seconds,
                              workdir=workdir, smoke=args.smoke,
                              ledger=ledger)).run()
    finally:
        if ledger is not None:
            ledger.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = ledger.metrics(outcome.detail["remote_retries"])
        values.update(outcome.driver)
    else:
        units, values = gated, outcome.metrics
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {sorted(missing)}")

    detail = {
        "workload": args.workload,
        "why": why,
        "provenance": provenance(args, args.workload, fsync),
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "detail": outcome.detail,
        "ungated": {name: {"value": outcome.metrics[name],
                           "unit": METRICS[name][0]}
                    for name in METRICS if name not in gated},
    }
    if args.trace:
        detail["traced_end_to_end"] = outcome.metrics
    print(json.dumps({"perfbench_detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
