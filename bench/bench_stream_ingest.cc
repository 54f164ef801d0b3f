// Streamed vs one-shot ingestion: what does the service layer cost?
//
// The acceptance claim for PR 5: at D = 2^16, streaming a population as
// kStreamChunk messages through AggregatorService (session bookkeeping,
// per-server strand queue, worker-pool handoff) lands within 10% of the
// bare AbsorbBatchSerialized loop on the same chunk bytes — the stream
// framing adds ~18 bytes and one map lookup per multi-thousand-report
// chunk, so the absorb work dominates. BM_StreamedChunks covers worker
// pool sizes 1 and 4; BM_OneShotBatch is the reference. Chunk bytes are
// pre-encoded outside the timed region (client-side encode cost is the
// same on both paths and is measured by bench_ingest_throughput).
//
// BM_AbsorbChunks is the batch absorb kernel per report family (flat,
// Haar, tree, AHEAD phase 1, 2-D grid) at 2000-report chunks — the
// chunk size the wire benchmarks stream. Its time per item is the
// server's absorb cost per report.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr double kEps = 1.1;
constexpr uint64_t kReportsPerChunk = 8192;

service::ServerSpec TreeSpec(uint64_t domain) {
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kTree;
  spec.domain = domain;
  spec.eps = kEps;
  spec.fanout = 4;
  return spec;
}

// Pre-encodes `num_chunks` kTreeHrrBatch messages of kReportsPerChunk
// reports each.
std::vector<std::vector<uint8_t>> MakeChunks(uint64_t domain,
                                             int64_t num_chunks) {
  protocol::TreeHrrClient client(domain, /*fanout=*/4, kEps);
  Rng rng(42);
  std::vector<uint64_t> values(kReportsPerChunk);
  std::vector<std::vector<uint8_t>> chunks;
  chunks.reserve(num_chunks);
  for (int64_t c = 0; c < num_chunks; ++c) {
    for (uint64_t i = 0; i < kReportsPerChunk; ++i) {
      values[i] = (c * kReportsPerChunk + i * 2654435761u) % domain;
    }
    chunks.push_back(client.EncodeUsersSerialized(values, rng));
  }
  return chunks;
}

// Reference: the in-process batch loop, no service in the path. The
// server lives outside the timed region (both paths ingest into a
// long-lived aggregator; counters just grow across iterations).
void BM_OneShotBatch(benchmark::State& state) {
  uint64_t domain = state.range(0);
  int64_t num_chunks = state.range(1);
  std::vector<std::vector<uint8_t>> chunks = MakeChunks(domain, num_chunks);
  std::unique_ptr<service::AggregatorServer> server =
      service::MakeAggregatorServer(TreeSpec(domain));
  for (auto _ : state) {
    for (const std::vector<uint8_t>& chunk : chunks) {
      server->AbsorbBatchSerialized(chunk);
    }
    benchmark::DoNotOptimize(server->accepted_reports());
  }
  state.SetItemsProcessed(state.iterations() * num_chunks *
                          kReportsPerChunk);
}
BENCHMARK(BM_OneShotBatch)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 32})
    ->UseRealTime();

enum class Family { kFlat, kHaar, kTree, kAheadPhase1, kGrid };

constexpr uint64_t kFamilyDomain = uint64_t{1} << 16;
constexpr uint64_t kGridDomain = uint64_t{1} << 8;  // per axis, 2 axes
constexpr uint64_t kFamilyChunk = 2000;
constexpr int64_t kFamilyChunks = 16;

service::ServerSpec FamilySpec(Family family) {
  service::ServerSpec spec;
  spec.domain = kFamilyDomain;
  spec.eps = kEps;
  spec.fanout = 4;
  switch (family) {
    case Family::kFlat:
      spec.kind = service::ServerKind::kFlat;
      break;
    case Family::kHaar:
      spec.kind = service::ServerKind::kHaar;
      break;
    case Family::kTree:
      spec.kind = service::ServerKind::kTree;
      break;
    case Family::kAheadPhase1:
      spec.kind = service::ServerKind::kAhead;
      break;
    case Family::kGrid:
      spec.kind = service::ServerKind::kGrid;
      spec.domain = kGridDomain;
      spec.fanout = 2;
      spec.dimensions = 2;
      break;
  }
  return spec;
}

// kFamilyChunks batch messages of kFamilyChunk reports each.
std::vector<std::vector<uint8_t>> MakeFamilyChunks(Family family) {
  const service::ServerSpec spec = FamilySpec(family);
  Rng rng(7);
  std::vector<std::vector<uint8_t>> chunks;
  for (int64_t c = 0; c < kFamilyChunks; ++c) {
    const uint64_t values_per_report = family == Family::kGrid ? 2 : 1;
    std::vector<uint64_t> values(kFamilyChunk * values_per_report);
    for (uint64_t& v : values) v = rng.UniformInt(spec.domain);
    switch (family) {
      case Family::kFlat:
        chunks.push_back(protocol::FlatHrrClient(spec.domain, spec.eps)
                             .EncodeUsersSerialized(values, rng));
        break;
      case Family::kHaar:
        chunks.push_back(protocol::HaarHrrClient(spec.domain, spec.eps)
                             .EncodeUsersSerialized(values, rng));
        break;
      case Family::kTree:
        chunks.push_back(
            protocol::TreeHrrClient(spec.domain, spec.fanout, spec.eps)
                .EncodeUsersSerialized(values, rng));
        break;
      case Family::kAheadPhase1: {
        protocol::AheadClient client(spec.domain, spec.fanout, spec.eps);
        std::vector<protocol::AheadWireReport> reports;
        for (uint64_t v : values) reports.push_back(client.EncodePhase1(v, rng));
        chunks.push_back(protocol::SerializeReportBatch(
            protocol::AheadLayout{},
            std::span<const protocol::AheadWireReport>(reports)));
        break;
      }
      case Family::kGrid:
        chunks.push_back(protocol::MultiDimClient(spec.domain, spec.dimensions,
                                                  spec.eps, spec.fanout)
                             .EncodeUsersSerialized(values, rng));
        break;
    }
  }
  return chunks;
}

// One fresh server per iteration, built (and its predecessor destroyed)
// outside the timed region, so the grid's deferred OLH columns cannot
// grow without bound; the timed region is exactly the
// AbsorbBatchSerialized calls.
void BM_AbsorbChunks(benchmark::State& state, Family family) {
  const service::ServerSpec spec = FamilySpec(family);
  const std::vector<std::vector<uint8_t>> chunks = MakeFamilyChunks(family);
  std::unique_ptr<service::AggregatorServer> server;
  uint64_t accepted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    server = service::MakeAggregatorServer(spec);
    state.ResumeTiming();
    for (const std::vector<uint8_t>& chunk : chunks) {
      server->AbsorbBatchSerialized(chunk);
    }
    accepted += server->accepted_reports();
  }
  const uint64_t reports = state.iterations() * kFamilyChunks * kFamilyChunk;
  if (accepted != reports) state.SkipWithError("a report was rejected");
  state.SetItemsProcessed(static_cast<int64_t>(reports));
}
BENCHMARK_CAPTURE(BM_AbsorbChunks, flat, Family::kFlat)->UseRealTime();
BENCHMARK_CAPTURE(BM_AbsorbChunks, haar, Family::kHaar)->UseRealTime();
BENCHMARK_CAPTURE(BM_AbsorbChunks, tree, Family::kTree)->UseRealTime();
BENCHMARK_CAPTURE(BM_AbsorbChunks, ahead_phase1, Family::kAheadPhase1)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_AbsorbChunks, grid, Family::kGrid)->UseRealTime();

// Streamed: the same chunk bytes through the live service, one fresh
// session per iteration (steady-state serving; the pool and server are
// long-lived). Wall-clock time, since the absorb work runs on pool
// workers. workers = 0 is inline mode — the acceptance comparison
// against BM_OneShotBatch, isolating the framing + session cost from
// core count (on a single-core box the pooled variants serialize the
// producer and worker, so their wall time is the sum of both).
void BM_StreamedChunks(benchmark::State& state) {
  uint64_t domain = state.range(0);
  int64_t num_chunks = state.range(1);
  unsigned workers = static_cast<unsigned>(state.range(2));
  std::vector<std::vector<uint8_t>> chunks = MakeChunks(domain, num_chunks);
  service::AggregatorService svc(workers);
  uint64_t id =
      svc.AddServer(service::MakeAggregatorServer(TreeSpec(domain)));
  uint64_t session = 0;
  for (auto _ : state) {
    ++session;
    svc.HandleMessage(service::SerializeStreamBegin({session, id}));
    for (int64_t c = 0; c < num_chunks; ++c) {
      svc.HandleMessage(service::SerializeStreamChunk(
          session, static_cast<uint64_t>(c), chunks[c]));
    }
    svc.HandleMessage(service::SerializeStreamEnd(
        {session, static_cast<uint64_t>(num_chunks), 0}));
    svc.Drain();
    benchmark::DoNotOptimize(svc.server(id).accepted_reports());
  }
  state.SetItemsProcessed(state.iterations() * num_chunks *
                          kReportsPerChunk);
}
BENCHMARK(BM_StreamedChunks)
    ->Args({1 << 12, 8, 0})
    ->Args({1 << 16, 8, 0})
    ->Args({1 << 16, 32, 0})
    ->Args({1 << 16, 8, 1})
    ->Args({1 << 16, 32, 1})
    ->Args({1 << 16, 32, 4})
    ->UseRealTime();

// Many mechanism instances ingesting concurrently — the case the worker
// pool exists for: 4 servers, one session each per iteration. With one
// worker the strands serialize; with 4 they genuinely overlap.
void BM_StreamedMultiServer(benchmark::State& state) {
  uint64_t domain = state.range(0);
  int64_t num_chunks = state.range(1);
  unsigned workers = static_cast<unsigned>(state.range(2));
  std::vector<std::vector<uint8_t>> chunks = MakeChunks(domain, num_chunks);
  constexpr int kServers = 4;
  service::AggregatorService svc(workers);
  std::vector<uint64_t> ids;
  for (int s = 0; s < kServers; ++s) {
    ids.push_back(
        svc.AddServer(service::MakeAggregatorServer(TreeSpec(domain))));
  }
  uint64_t session = 0;
  for (auto _ : state) {
    uint64_t base = session;
    for (int s = 0; s < kServers; ++s) {
      svc.HandleMessage(service::SerializeStreamBegin({base + s, ids[s]}));
    }
    for (int64_t c = 0; c < num_chunks; ++c) {
      for (int s = 0; s < kServers; ++s) {
        svc.HandleMessage(service::SerializeStreamChunk(
            base + s, static_cast<uint64_t>(c), chunks[c]));
      }
    }
    // End each session so its sequence set is released; without this
    // the timed region accumulates per-session state across iterations.
    for (int s = 0; s < kServers; ++s) {
      svc.HandleMessage(service::SerializeStreamEnd(
          {base + s, static_cast<uint64_t>(num_chunks), 0}));
    }
    svc.Drain();
    session += kServers;
    benchmark::DoNotOptimize(svc.server(ids[0]).accepted_reports());
  }
  state.SetItemsProcessed(state.iterations() * kServers * num_chunks *
                          kReportsPerChunk);
}
BENCHMARK(BM_StreamedMultiServer)
    ->Args({1 << 16, 8, 1})
    ->Args({1 << 16, 8, 4})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
