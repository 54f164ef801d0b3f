#!/usr/bin/env bash
# Records the Release-mode micro-benchmark baselines checked in at the repo
# root (BENCH_*.json). Later PRs claim measured speedups against these, so
# re-run this script (on a quiet machine) whenever a hot path changes:
#
#   bench/run_baselines.sh            # all six binaries
#   bench/run_baselines.sh ingest     # just the ingest-throughput headline
#   bench/run_baselines.sh ahead      # just the AHEAD-vs-HHc comparison
#   bench/run_baselines.sh multidim   # just the 2-D grid vs product-of-1-D
#   bench/run_baselines.sh net        # loadgen over the loopback TCP front-end
#
# BENCH_baseline.json is the headline file: OLH ingestion+finalize
# throughput, eager vs deferred vs sharded (see bench_ingest_throughput.cc).
set -euo pipefail
cd "$(dirname "$0")/.."

what="${1:-all}"

cmake --preset release -DLDP_BUILD_BENCH=ON
cmake --build --preset release -j"$(nproc)" --target \
  bench_ingest_throughput bench_micro_oracles bench_micro_mechanisms \
  bench_micro_ahead bench_micro_multidim bench_stream_ingest loadgen

# Methodology (mirrors bench/bench_common.h): every recorded number is a
# MEDIAN over ${LDP_BENCH_REPS:-5} repetitions after a fixed warmup, never
# a single-shot timing — medians shrug off the one-sided contamination VM
# steal and background wakeups cause, which single runs do not.
run() {
  local binary="$1" out="$2"
  echo "== ${binary} -> ${out}"
  "build-release/bench/${binary}" \
    --benchmark_format=console \
    --benchmark_min_warmup_time=0.2 \
    --benchmark_repetitions="${LDP_BENCH_REPS:-5}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="${out}" \
    --benchmark_out_format=json \
    --benchmark_context=host_cpus="$(nproc)"
}

if [[ "${what}" == "all" || "${what}" == "ingest" ]]; then
  run bench_ingest_throughput BENCH_baseline.json
fi
if [[ "${what}" == "all" || "${what}" == "micro" ]]; then
  run bench_micro_oracles BENCH_micro_oracles.json
  run bench_micro_mechanisms BENCH_micro_mechanisms.json
fi
if [[ "${what}" == "all" || "${what}" == "ahead" ]]; then
  # AHEAD vs HHc4/HHc16: timing plus the `mse` accuracy counters at the
  # acceptance scale (D = 2^16, eps = 1, 200k users).
  run bench_micro_ahead BENCH_micro_ahead.json
fi
if [[ "${what}" == "all" || "${what}" == "multidim" ]]; then
  # 2-D hierarchical grid vs the product-of-marginals baseline at
  # D = 2^10 per axis: ingest/finalize and per-rectangle query timing,
  # plus `mse` / `bias_floor_mse` accuracy counters.
  run bench_micro_multidim BENCH_micro_multidim.json
fi
if [[ "${what}" == "all" || "${what}" == "stream" ]]; then
  # Streamed chunks through AggregatorService vs the bare
  # AbsorbBatchSerialized loop (within 10% at D = 2^16), plus the batch
  # absorb kernel per report family (BM_AbsorbChunks).
  run bench_stream_ingest BENCH_micro_stream.json
fi
if [[ "${what}" == "all" || "${what}" == "net" ]]; then
  # The same streamed chunks through a real loopback socket: ingest
  # throughput and query latency via the self-hosted TCP front-end.
  # loadgen is a plain binary (no Google Benchmark) but follows the same
  # medians-over-reps methodology via --reps.
  echo "== loadgen -> BENCH_micro_net.json"
  build-release/bench/loadgen \
    --users=200000 --connections=8 --chunk=2000 --mechanism=haar \
    --domain=1024 --eps=1.0 --queries=200 \
    --reps="${LDP_BENCH_REPS:-5}" --assert-clean \
    --json=BENCH_micro_net.json
  # Distributed fan-in (PR 10): the same 200k-user population split
  # across N shard processes that each run the full encode+stream+absorb
  # pipeline on their own service, then push wire-serialized state
  # snapshots into this process's merge plane. Total connection count is
  # held at 8 so the 2- and 4-shard rows are comparable to the
  # single-process row above. The recorded scaling ratio is
  # aggregate-vs-shard-median within the run; note host_cpus in the
  # output — wall-clock cross-process scaling needs >= shards cores.
  fanin_tmp="$(mktemp -d)"
  trap 'rm -rf "${fanin_tmp}"' EXIT
  build-release/bench/loadgen \
    --users=200000 --connections=4 --chunk=2000 --mechanism=haar \
    --domain=1024 --eps=1.0 --queries=200 \
    --reps="${LDP_BENCH_REPS:-5}" --shards=2 --assert-clean \
    --json="${fanin_tmp}/fanin2.json"
  build-release/bench/loadgen \
    --users=200000 --connections=2 --chunk=2000 --mechanism=haar \
    --domain=1024 --eps=1.0 --queries=200 \
    --reps="${LDP_BENCH_REPS:-5}" --shards=4 --assert-clean \
    --json="${fanin_tmp}/fanin4.json"
  python3 - "${fanin_tmp}" <<'PY'
import json, sys
tmp = sys.argv[1]
with open("BENCH_micro_net.json") as f:
    merged = json.load(f)
merged["fan_in"] = [json.load(open(f"{tmp}/fanin{n}.json")) for n in (2, 4)]
with open("BENCH_micro_net.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print("merged fan-in rows into BENCH_micro_net.json")
PY
fi
echo "done."
