"""Run every workload untraced and traced, and print the full report.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed 1] [--seconds 36] [--smoke]

Each workload runs twice, each time in a fresh process (so peak memory is
the workload's own): once untraced for the end-to-end metrics and once
with the per-layer ledger.  The report shows

* every end-to-end metric on every workload, with its unit; ``*`` marks
  the workloads a metric was chosen for;
* the correctness checks and the attempted/failed counts per workload;
* the per-layer ledger;
* closure: unattributed client time (``other``) as a share of the traced
  operations' wall time, against a 10% target;
* the tracing overhead: traced minus untraced, per end-to-end metric;
* the provenance of the runs.

Exits 1 if any run fails or any check does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import METRICS  # noqa: E402

#: The workloads each end-to-end metric was chosen for.
PRIMARY = {
    "setup_s": ("small-ops", "bulk-rs", "stream-mem"),
    "read_p50_ms": ("small-ops",),
    "read_p99_ms": ("small-ops",),
    "write_p50_ms": ("small-ops",),
    "write_p99_ms": ("small-ops",),
    "max_rate_ops": ("small-ops",),
    "put_mbps": ("bulk-rs", "stream-mem"),
    "get_mbps": ("bulk-rs", "stream-mem"),
    "degraded_get_mbps": ("bulk-rs",),
    "peak_rss_mib": ("stream-mem",),
    "stored_bytes_ratio": ("small-ops", "bulk-rs", "stream-mem"),
}
CLOSURE_TARGET = 0.10


def run_one(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> tuple[dict, dict]:
    """One run in a fresh process; returns (detail, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["perfbench_detail"], json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    plain, traced = {}, {}
    for w in workloads:
        plain[w] = run_one(w, args.seed, args.seconds, 0, args.smoke)
        traced[w] = run_one(w, args.seed, args.seconds, 1, args.smoke)

    ok = True
    width = 13
    head = "".join(f"{w:>{width}}" for w in workloads)
    gated = {m["name"] for m in spec["end_to_end"]}
    print("== end-to-end (untraced; * = chosen for that workload; "
          "ungated ones marked)")
    print(f"{'metric':<22}{'unit':<7}{head}")
    for name, (unit, _) in METRICS.items():
        cells = ""
        for w in workloads:
            detail, result = plain[w]
            cell = (result["metrics"] if name in gated
                    else detail["ungated"])[name]
            mark = "*" if w in PRIMARY.get(name, ()) else " "
            cells += f"{_fmt(cell['value']) + mark:>{width}}"
        label = name if name in gated else f"{name} (ungated)"
        print(f"{label:<22}{unit:<7}{cells}")

    print("\n== correctness")
    for w in workloads:
        for label, (detail, result) in (("untraced", plain[w]),
                                        ("traced", traced[w])):
            checks = {k: v["ok"] for k, v in detail["checks"].items()}
            good = result["correct"] and all(checks.values())
            ok &= good and result["failed"] == 0
            print(f"{w:<12} {label:<9} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} checks={checks}")

    print("\n== per-layer ledger (traced)")
    print(f"{'metric':<28}{'unit':<7}{head}")
    for m in spec["per_layer"]:
        cells = "".join(
            f"{_fmt(traced[w][1]['metrics'][m['name']]['value']):>{width}}"
            for w in workloads)
        print(f"{m['name']:<28}{m['unit']:<7}{cells}")

    print(f"\n== closure (other.share; target <= {CLOSURE_TARGET:.0%})")
    for w in workloads:
        metrics = traced[w][1]["metrics"]
        share = metrics["other.share"]["value"]
        verdict = "met" if share <= CLOSURE_TARGET else "not met"
        print(f"{w:<12} other.ms={_fmt(metrics['other.ms']['value'])} "
              f"share={share:.1%} ({verdict})")

    print("\n== tracing overhead (traced - untraced)")
    print(f"{'metric':<22}{head}")
    for name in METRICS:
        cells = ""
        for w in workloads:
            detail, result = plain[w]
            base = (result["metrics"] if name in gated
                    else detail["ungated"])[name]["value"]
            with_trace = traced[w][0]["traced_end_to_end"][name]
            rel = (with_trace - base) / base if base else 0.0
            cells += f"{rel:>+{width}.1%}"
        print(f"{name:<22}{cells}")

    print("\n== provenance")
    prov = plain[workloads[0]][0]["provenance"]
    for key in sorted(prov):
        print(f"{key}: {json.dumps(prov[key], sort_keys=True)}")
    for w in workloads:
        print(f"why {w}: {plain[w][0]['why']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
