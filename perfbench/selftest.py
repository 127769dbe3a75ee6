"""Self-test of the benchmark: a smoke-size run of every workload.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` keeps to its contract, that each workload's
"why" matches its definition in ``workloads.py``, and that a smoke run of
every workload, untraced and traced, prints every named metric with its
unit, passes every correctness check and fails no operation.  It also
checks that the benchmark refuses to run in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def expect(condition, what) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec))
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    expect(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "names must be unique")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and NAME.match(w["name"]), w)
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], w)
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, m)
        expect(0 < m["bound"] <= 0.25, m)
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, m)
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) and UNIT.match(m["unit"]), m)
        expect(m["better"] in ("higher", "lower"), m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s in s, lower is better")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["perfbench_detail"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           sorted(result))
    expect(result["correct"] is True, detail["checks"])
    expect(result["failed"] == 0 and result["attempted"] >= 1, result)
    for name, check in detail["checks"].items():
        expect(check["ok"], (name, check))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    expect(set(got) == set(units), set(got) ^ set(units))
    for name, cell in got.items():
        expect(cell["unit"] == units[name], (name, cell))
        value = cell["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), name)
        expect(trace or value > 0, f"{workload}: {name} is {value}")
    if trace and workload == "small-ops":
        for w in ("driver.worker0_busy_share", "driver.worker1_busy_share"):
            expect(got[w]["value"] > 0, f"{w} idle")
        expect(got["protocol.frames"]["value"] == 0, "small-ops framed")
    if trace and workload != "small-ops":
        expect(got["protocol.frames"]["value"] > 0, f"{workload}: no frames")
        expect(got["journal.records"]["value"] == 0, f"{workload}: journal")


def check_bare_directory() -> None:
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, "small-ops", 0)
        expect(proc.returncode != 0, "ran without the program")
        expect('"metrics"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    expect({w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (_, why) in WORKLOADS.items()}, "whys differ")
    check_bare_directory()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
