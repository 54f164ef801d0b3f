#!/usr/bin/env python3
"""Repository benchmark: builds ldpbench from source and runs one workload.

    python3 perfbench/run.py --workload ingest_wire|serve_mixed|simulate \
        --seed N --seconds T --trace 0|1 [--smoke] [--corrupt GATE]

--trace 0 measures the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced (benchmark-side spans plus the
service's Chrome trace), and reports the per-layer metrics of the traced
pass and obs.trace_overhead, the relative cost of tracing on the workload's
headline metric. Served workloads run the service and the load generator
as two processes. The last line of standard output is one JSON object;
the full result (samples, gates, host metadata) is also written under
<build dir>/results/. The exit code is 0 only when every correctness gate
passed.
"""

import argparse
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Headline metric of each workload and whether larger is better; the
# traced-vs-untraced difference on it is obs.trace_overhead.
HEADLINE = {
    "ingest_wire": ("ingest_rps", True),
    "serve_mixed": ("query_p50_us", False),
    "simulate": ("sim_trial_s", False),
}
CHILD_TIMEOUT_S = 170
HOST_KEYS = ("nproc", "build_type", "compiler", "simd_tier", "cpus")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def results_dir(args):
    """Smoke runs keep their records apart from measured ones."""
    path = build_dir() / ("results-smoke" if args.smoke else "results")
    path.mkdir(parents=True, exist_ok=True)
    return path


def build():
    """Configures and builds ldpbench (incremental after the first run)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    cmake = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists():
        if subprocess.run(cmake, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                       "ldpbench"], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return out / "ldpbench"


def read_line(proc, prefix, timeout):
    """Reads the child's stdout until a line starting with `prefix`."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(prefix):
                return dict(kv.split("=", 1) for kv in line.split()[1:])
        elif proc.poll() is not None:
            break
    raise BenchError(f"service did not print {prefix}")


def cpu_split():
    """Service and load-generator CPU sets for the served workloads: each
    process gets half of the CPUs, so the generator never competes with
    the service for a core. No pinning below four CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


def pinned(cpus):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_pass(binary, args, trace, tag):
    """One pass of the workload; returns the generator's result dict."""
    results = results_dir(args)
    stem = f"{args.workload}-s{args.seed}-{tag}"
    out_path = results / f"{stem}.gen.json"
    out_path.unlink(missing_ok=True)  # never read a previous run's record
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(trace), "--out", str(out_path)]
    if trace:
        common += ["--spans", str(results / f"{stem}.spans.json")]
    if args.smoke:
        common.append("--smoke")
    if args.corrupt:
        common += ["--corrupt", args.corrupt]

    if args.workload == "simulate":
        rc = subprocess.run([str(binary), "simulate"] + common,
                            stdout=sys.stderr, timeout=CHILD_TIMEOUT_S).returncode
        result = json.loads(out_path.read_text())
        result["exit_code"] = rc
        return result

    serve_cmd = [str(binary), "serve", "--workload", args.workload,
                 "--seconds", str(args.seconds)]
    if args.smoke:
        serve_cmd.append("--smoke")
    if trace:
        serve_cmd += ["--trace", "1", "--trace-out",
                      str(results / f"{stem}.service-trace.json")]
    service_cpus, gen_cpus = cpu_split()
    service = subprocess.Popen(serve_cmd, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True,
                               preexec_fn=pinned(service_cpus))
    try:
        ready = read_line(service, "READY", 60)
        gen = subprocess.run(
            [str(binary), "gen", "--workload", args.workload, "--port",
             ready["port"]] + common,
            stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
            preexec_fn=pinned(gen_cpus))
        service.stdin.close()
        done = read_line(service, "DONE", 60)
        service.wait(timeout=60)
    finally:
        if service.poll() is None:
            service.kill()
            service.wait()
    result = json.loads(out_path.read_text())
    result["exit_code"] = gen.returncode
    result["info"]["cpus"] = (f"service {sorted(service_cpus)}, generator "
                              f"{sorted(gen_cpus)}" if service_cpus
                              else "unpinned")
    e2e = result["e2e"]
    e2e["setup_s"]["value"] += float(ready["setup_s"])
    e2e["peak_rss_mb"] = {"value": float(done["peak_rss_mb"]), "unit": "MiB",
                          "samples": 1}
    return result


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".inc", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_table(title, metrics):
    print(title)
    print(f"  {'metric':<36} {'value':>16} {'unit':<8} {'samples':>8}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<8} "
              f"{m.get('samples', 0):>8}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (the benchmark's own smoke test)")
    parser.add_argument("--corrupt", default="",
                        help="deliberately corrupt one gate's reference")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    binary = build()

    passes = [run_pass(binary, args, 0, "t0")]
    if args.trace:
        passes.append(run_pass(binary, args, 1, "t1"))
    base, final = passes[0], passes[-1]

    e2e = {}
    for m in spec["end_to_end"]:
        if m["name"] not in base["e2e"]:
            raise BenchError(f"workload did not measure {m['name']}")
        e2e[m["name"]] = base["e2e"][m["name"]]
    layer = {}
    if args.trace:
        name, higher_better = HEADLINE[args.workload]
        untraced = base["e2e"][name]["value"]
        traced = final["e2e"][name]["value"]
        overhead = (untraced / traced if higher_better else traced / untraced) - 1
        final["layer"]["obs.trace_overhead"] = {"value": overhead,
                                                "unit": "ratio", "samples": 2}
        for m in spec["per_layer"]:
            # Layers the workload does not run read 0.
            layer[m["name"]] = final["layer"].get(
                m["name"], {"value": 0.0, "unit": m["unit"], "samples": 0})

    correct = all(p["correct"] and p["exit_code"] == 0 for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    host = {k: base["info"][k] for k in HOST_KEYS if k in base["info"]}
    host.update({"commit": git_commit(), "source_digest": source_digest()})

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("host " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print_table("end-to-end (untraced pass)", e2e)
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<36} {error_rate:>16.6g} {'ratio':<8} "
          f"{attempted:>8}")
    if args.trace:
        print_table("per-layer (traced pass)", layer)
    for label, p in zip(("untraced", "traced"), passes):
        for gate, g in sorted(p["gates"].items()):
            print(f"gate [{label}] {gate}: {'ok' if g['ok'] else 'FAILED'}"
                  f" - {g['detail']}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "e2e": e2e, "per_layer": layer, "host": host,
              "gates": [p["gates"] for p in passes],
              "info": [p["info"] for p in passes]}
    (results_dir(args) / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = layer if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        sys.exit(2)
