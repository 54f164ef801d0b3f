#!/usr/bin/env python3
"""Summarizes benchmark results: one table per workload.

    python3 perfbench/report.py [RESULT.json | DIR ...]

Reads the records run.py writes (<build dir>/results/<workload>-s<seed>-
t<trace>.json by default). For each workload it prints the end-to-end
metrics of the untraced runs (median, quartiles, IQR/median and CV across
runs; metrics with CV above 5% are flagged) and the per-layer metrics of
the traced runs. Standard library only.
"""

import json
import os
import re
import statistics
import sys
from pathlib import Path

RECORD = re.compile(r".*-s\d+-t[01]\.json$")
CV_FLAG = 0.05


def load(paths):
    files = []
    for p in map(Path, paths):
        if p.is_dir():
            files += sorted(f for f in p.iterdir() if RECORD.match(f.name))
        else:
            files.append(p)
    return [json.loads(f.read_text()) for f in files]


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        mean = statistics.fmean(values)
        cv = statistics.stdev(values) / abs(mean) if mean else 0.0
    else:
        q1 = q3 = med
        cv = 0.0
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread, cv


def table(title, records, key):
    metrics = {}
    for r in records:
        for name, m in r[key].items():
            # A layer the workload does not run reads 0 with no samples.
            if m.get("samples", 1) == 0 and m["value"] == 0:
                continue
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    if not metrics:
        return
    print(f"  {title} ({len(records)} runs)")
    print(f"    {'metric':<36} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'cv':>7}")
    for name, (unit, values) in metrics.items():
        med, q1, q3, spread, cv = summary(values)
        flag = "  CV>5%" if cv > CV_FLAG else ""
        print(f"    {name:<36} {unit:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.3f} {cv:>6.1%}{flag}")


def main(argv):
    default = Path(__file__).resolve().parent.parent / os.environ.get(
        "CARGO_TARGET_DIR", ".bench_build") / "results"
    records = load(argv or [default])
    if not records:
        print("no results found", file=sys.stderr)
        return 1
    host = records[0].get("host", {})
    print("host: " + ", ".join(f"{k}={v}" for k, v in sorted(host.items())
                               if not k.startswith(("round_", "zscore"))))
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = sum(1 for r in runs if r["correct"])
        print(f"\n{workload}: {correct}/{len(runs)} runs correct, error_rate "
              f"{failed / attempted if attempted else 0:.3g} "
              f"({failed} of {attempted} operations)")
        table("end-to-end", plain, "e2e")
        table("per-layer (traced)", traced, "per_layer")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
