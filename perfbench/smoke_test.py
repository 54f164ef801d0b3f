#!/usr/bin/env python3
"""The benchmark's own test: a small configuration of all three workloads.

    python3 perfbench/smoke_test.py

Checks that every workload passes its correctness gates at small size
(untraced and traced), that every gate fires when its reference is
deliberately corrupted, and that run.py fails without printing a result
when the library sources are missing. Exits non-zero on the first
failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SECONDS = "2"

# (workload, corrupted gate, gate names expected to fail)
CORRUPTIONS = [
    ("ingest_wire", "wire_probe", ["wire_probe"]),
    ("ingest_wire", "fanin_probe", ["fanin_probe"]),
    ("ingest_wire", "report_accounting", ["report_accounting"]),
    ("serve_mixed", "wire_probe", ["wire_probe"]),
    ("serve_mixed", "fanin_probe", ["fanin_probe"]),
    ("serve_mixed", "report_accounting", ["report_accounting"]),
    ("simulate", "zscore", ["zscore.HaarHRR", "zscore.HHc4", "zscore.AHEAD4",
                            "zscore.HH2D2", "zscore.HHc4-OLH"]),
]


def run(workload, seed, trace=0, corrupt=None, root=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", SECONDS, "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def failed_gates(workload, seed, trace=0):
    record = json.loads((ROOT / ".bench_build" / "results-smoke" /
                         f"{workload}-s{seed}-t{trace}.json").read_text())
    return {name for gates in record["gates"] for name, g in gates.items()
            if not g["ok"]}


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main():
    for workload in ("ingest_wire", "serve_mixed", "simulate"):
        for trace in (0, 1):
            rc, result = run(workload, 1, trace)
            check(rc == 0 and result and result["correct"],
                  f"{workload} trace={trace}: clean run passes every gate")
    for seed, (workload, corrupt, gates) in enumerate(CORRUPTIONS, start=100):
        rc, result = run(workload, seed, corrupt=corrupt)
        fired = failed_gates(workload, seed)
        check(rc != 0 and result is not None and not result["correct"]
              and set(gates) <= fired,
              f"{workload}: corrupted {corrupt} reference fires {gates} "
              f"(failed: {sorted(fired)})")

    # Without the library sources the benchmark must fail, printing no
    # result line.
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(PERFBENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = run("simulate", 1, root=bare)
    shutil.rmtree(bare)
    check(rc != 0 and result is None,
          "without src/ run.py exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
