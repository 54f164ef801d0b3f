// The distributed fan-in plane: wire-serialized aggregate-state
// snapshots, the merge algebra (associativity, canonical round trips),
// and the service merge plane — N-shard fan-in must be bit-identical to
// single-process ingestion of the union, for every mechanism family,
// push order, and worker count. Plus the typed MergeStatus error matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::ParseError;
using service::AggregatorServer;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::MergeStatus;
using service::QueryInterval;
using service::QueryStatus;
using service::RangeQueryRequest;
using service::RangeQueryResponse;
using service::ServerKind;
using service::ServerKindName;
using service::ServerSpec;
using service::StateMergeRequest;
using service::StateMergeResponse;

constexpr uint64_t kDomain = 64;
constexpr double kEps = 1.0;
constexpr int kShards = 3;

std::vector<uint64_t> TestValues(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  values.reserve(n);
  Rng rng(0xFA111);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.6) ? rng.UniformInt(domain / 8)
                                        : rng.UniformInt(domain));
  }
  return values;
}

// One shard's batch message for the single-session mechanisms. The same
// bytes feed both shard s and the single-process reference, so their
// union must agree bit for bit.
std::vector<uint8_t> EncodeShardBatch(const ServerSpec& spec,
                                      std::span<const uint64_t> values,
                                      uint64_t seed) {
  Rng rng(seed);
  switch (spec.kind) {
    case ServerKind::kFlat: {
      protocol::FlatHrrClient client(spec.domain, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kHaar: {
      protocol::HaarHrrClient client(spec.domain, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kTree: {
      protocol::TreeHrrClient client(spec.domain, spec.fanout, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kGrid: {
      // `values` doubles as row-major coordinates (dimensions per point).
      protocol::MultiDimClient client(spec.domain, spec.dimensions, spec.eps,
                                      spec.fanout);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kAhead:
      ADD_FAILURE() << "AHEAD uses the two-phase driver";
      return {};
  }
  return {};
}

// The single-session specs the matrix tests iterate: the three 1-D
// mechanisms plus the grid at two and three axes. AHEAD gets dedicated
// two-phase tests.
std::vector<ServerSpec> MatrixSpecs() {
  std::vector<ServerSpec> specs;
  for (ServerKind kind :
       {ServerKind::kFlat, ServerKind::kHaar, ServerKind::kTree}) {
    ServerSpec spec;
    spec.kind = kind;
    spec.domain = kDomain;
    spec.eps = kEps;
    specs.push_back(spec);
  }
  for (uint32_t dims : {2u, 3u}) {
    ServerSpec spec;
    spec.kind = ServerKind::kGrid;
    spec.domain = 16;
    spec.eps = kEps;
    spec.fanout = 2;
    spec.dimensions = dims;
    specs.push_back(spec);
  }
  return specs;
}

// Per-shard share of the workload for `spec`: kShards batch messages
// with globally distinct encode seeds, so shard ingestion partitions
// exactly what the reference ingests whole.
std::vector<std::vector<uint8_t>> ShardBatches(const ServerSpec& spec) {
  const uint64_t points = spec.kind == ServerKind::kGrid ? 300 : 900;
  const uint64_t stride =
      spec.kind == ServerKind::kGrid ? spec.dimensions : 1;
  std::vector<uint64_t> values = TestValues(points * stride, spec.domain);
  std::vector<std::vector<uint8_t>> batches;
  const uint64_t per_shard = points / kShards;
  for (int s = 0; s < kShards; ++s) {
    std::span<const uint64_t> slice(values.data() + s * per_shard * stride,
                                    per_shard * stride);
    batches.push_back(EncodeShardBatch(spec, slice, /*seed=*/0x51AB + s));
  }
  return batches;
}

std::unique_ptr<AggregatorServer> IngestedServer(
    const ServerSpec& spec, std::span<const std::vector<uint8_t>> batches) {
  std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
  for (const std::vector<uint8_t>& batch : batches) {
    EXPECT_EQ(server->AbsorbBatchSerialized(batch), ParseError::kOk);
  }
  return server;
}

// --- The merge algebra, via the public serialized-state API ------------

TEST(StateSnapshot, RestoredStateReserializesCanonically) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    std::unique_ptr<AggregatorServer> source = IngestedServer(spec, batches);
    std::vector<uint8_t> snapshot = source->SerializeState();

    std::unique_ptr<AggregatorServer> restored = MakeAggregatorServer(spec);
    ASSERT_EQ(restored->MergeSerializedState(snapshot), MergeStatus::kOk);
    // Canonical: the restored aggregate re-serializes to the same bytes,
    // and carries the same ingestion accounting.
    EXPECT_EQ(restored->SerializeState(), snapshot);
    EXPECT_EQ(restored->stats(), source->stats());

    // And the restored state answers queries identically.
    source->Finalize();
    restored->Finalize();
    EXPECT_EQ(restored->EstimateFrequencies(), source->EstimateFrequencies());
  }
}

TEST(StateSnapshot, MergeIsAssociativeAndMatchesSingleProcess) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    // Reference: every shard's bytes into one server, in shard order.
    std::unique_ptr<AggregatorServer> reference =
        IngestedServer(spec, batches);
    const std::vector<uint8_t> expected = reference->SerializeState();

    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < kShards; ++s) {
      snaps.push_back(
          IngestedServer(spec, {&batches[s], 1})->SerializeState());
    }

    // (A . B) . C — with the intermediate re-serialized and restored, so
    // the associativity claim covers the wire form, not just in-memory
    // objects.
    std::unique_ptr<AggregatorServer> left = MakeAggregatorServer(spec);
    ASSERT_EQ(left->MergeSerializedState(snaps[0]), MergeStatus::kOk);
    ASSERT_EQ(left->MergeSerializedState(snaps[1]), MergeStatus::kOk);
    std::vector<uint8_t> left_snapshot = left->SerializeState();
    std::unique_ptr<AggregatorServer> left_total = MakeAggregatorServer(spec);
    ASSERT_EQ(left_total->MergeSerializedState(left_snapshot),
              MergeStatus::kOk);
    ASSERT_EQ(left_total->MergeSerializedState(snaps[2]), MergeStatus::kOk);

    // A . (B . C)
    std::unique_ptr<AggregatorServer> right = MakeAggregatorServer(spec);
    ASSERT_EQ(right->MergeSerializedState(snaps[1]), MergeStatus::kOk);
    ASSERT_EQ(right->MergeSerializedState(snaps[2]), MergeStatus::kOk);
    std::vector<uint8_t> right_snapshot = right->SerializeState();
    std::unique_ptr<AggregatorServer> right_total =
        MakeAggregatorServer(spec);
    ASSERT_EQ(right_total->MergeSerializedState(snaps[0]), MergeStatus::kOk);
    ASSERT_EQ(right_total->MergeSerializedState(right_snapshot),
              MergeStatus::kOk);

    EXPECT_EQ(left_total->SerializeState(), expected);
    EXPECT_EQ(right_total->SerializeState(), expected);

    reference->Finalize();
    left_total->Finalize();
    EXPECT_EQ(left_total->EstimateFrequencies(),
              reference->EstimateFrequencies());
  }
}

// --- AHEAD: the distributed two-phase protocol -------------------------
//
//  shard s: phase-1 ingest -> snapshot push ---.
//                                              +-> coordinator merges,
//  shard s: InstallTree(tree) <--- broadcast <-+   builds the tree
//  shard s: phase-2 ingest -> FULL snapshot --> fresh query node merges
//                                               all shards, finalizes.
// The phase-1 coordinator is a throwaway: its merged state exists only
// to derive the tree, so nothing is double counted.
TEST(StateSnapshot, AheadDistributedTwoPhaseMatchesSingleProcess) {
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(900, kDomain);
  const size_t half = values.size() / 2;
  std::span<const uint64_t> phase1(values.data(), half);
  std::span<const uint64_t> phase2(values.data() + half,
                                   values.size() - half);
  protocol::AheadClient client(kDomain, spec.fanout, kEps);

  auto encode_phase1_batch = [&](std::span<const uint64_t> share,
                                 uint64_t seed) {
    Rng rng(seed);
    std::vector<protocol::AheadWireReport> reports;
    for (uint64_t v : share) reports.push_back(client.EncodePhase1(v, rng));
    return protocol::SerializeReportBatch(protocol::AheadLayout{}, reports);
  };

  const uint64_t p1_share = phase1.size() / kShards;
  const uint64_t p2_share = phase2.size() / kShards;

  // Single-process reference.
  protocol::AheadServer reference(kDomain, spec.fanout, kEps);
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(encode_phase1_batch(
                  phase1.subspan(s * p1_share, p1_share), 0xAA + s)),
              ParseError::kOk);
  }
  std::vector<uint8_t> reference_tree = reference.BuildTree();
  ASSERT_TRUE(client.AbsorbTreeDescription(reference_tree));
  std::vector<std::vector<uint8_t>> phase2_batches;
  for (int s = 0; s < kShards; ++s) {
    Rng rng(0xBB + s);
    std::vector<protocol::AheadWireReport> reports =
        client.EncodePhase2Users(phase2.subspan(s * p2_share, p2_share), rng);
    phase2_batches.push_back(
        protocol::SerializeReportBatch(protocol::AheadLayout{}, reports));
  }
  for (const auto& batch : phase2_batches) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(batch), ParseError::kOk);
  }

  // Distributed: shard-local phase 1...
  std::vector<std::unique_ptr<AggregatorServer>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(MakeAggregatorServer(spec));
    ASSERT_EQ(shards[s]->AbsorbBatchSerialized(encode_phase1_batch(
                  phase1.subspan(s * p1_share, p1_share), 0xAA + s)),
              ParseError::kOk);
  }
  // ...phase-1 fan-in on a throwaway coordinator, tree derivation...
  std::unique_ptr<AggregatorServer> coordinator = MakeAggregatorServer(spec);
  for (const auto& shard : shards) {
    ASSERT_EQ(coordinator->MergeSerializedState(shard->SerializeState()),
              MergeStatus::kOk);
  }
  std::vector<uint8_t> tree =
      dynamic_cast<protocol::AheadServer&>(*coordinator).BuildTree();
  // Merged phase-1 counts equal the total counts, so the distributed
  // decomposition is the single-process one.
  EXPECT_EQ(tree, reference_tree);
  // ...tree broadcast + shard-local phase 2...
  for (int s = 0; s < kShards; ++s) {
    ASSERT_TRUE(
        dynamic_cast<protocol::AheadServer&>(*shards[s]).InstallTree(tree));
    ASSERT_EQ(shards[s]->AbsorbBatchSerialized(phase2_batches[s]),
              ParseError::kOk);
  }
  // ...and the final full-state fan-in on a fresh query node.
  std::unique_ptr<AggregatorServer> query_node = MakeAggregatorServer(spec);
  for (const auto& shard : shards) {
    ASSERT_EQ(query_node->MergeSerializedState(shard->SerializeState()),
              MergeStatus::kOk);
  }
  EXPECT_EQ(query_node->SerializeState(), reference.SerializeState());
  reference.Finalize();
  query_node->Finalize();
  EXPECT_EQ(query_node->EstimateFrequencies(),
            reference.EstimateFrequencies());
}

TEST(StateSnapshot, AheadTwoDifferentTreesRefuseToMerge) {
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = kDomain;
  spec.eps = kEps;
  protocol::AheadClient client(kDomain, spec.fanout, kEps);

  // Two servers with very different phase-1 mass: their adaptive
  // decompositions disagree, so their phase-2 counts are not summable.
  auto build = [&](uint64_t seed, bool lumpy) {
    std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
    Rng rng(seed);
    std::vector<protocol::AheadWireReport> reports;
    for (int i = 0; i < 600; ++i) {
      uint64_t v = lumpy ? 0 : rng.UniformInt(kDomain);
      reports.push_back(client.EncodePhase1(v, rng));
    }
    EXPECT_EQ(server->AbsorbBatchSerialized(protocol::SerializeReportBatch(
                  protocol::AheadLayout{}, reports)),
              ParseError::kOk);
    dynamic_cast<protocol::AheadServer&>(*server).BuildTree();
    return server;
  };
  std::unique_ptr<AggregatorServer> lumpy = build(1, true);
  std::unique_ptr<AggregatorServer> uniform = build(2, false);
  ASSERT_NE(lumpy->SerializeState(), uniform->SerializeState());
  EXPECT_EQ(lumpy->MergeSerializedState(uniform->SerializeState()),
            MergeStatus::kStateMismatch);
}

TEST(StateSnapshot, AheadTotalsMustEqualTheirTallies) {
  // p1 sets the split threshold (and p1 = 0 forces a full split), so a
  // shard that forged it would change the tree every shard encodes
  // against. D = 64, fanout 4 and counts below 128 keep every header
  // varint one byte: the body starts at offset 22 with [p1][p2][height],
  // then the u64 phase-1 tallies (level 1 at 25, level 2 at 57).
  protocol::AheadServer server(64, 4, kEps);
  for (const protocol::AheadWireReport& report :
       std::vector<protocol::AheadWireReport>{
           {1, 1, 2}, {1, 2, 5}, {1, 3, 63}}) {
    ASSERT_TRUE(server.Absorb(report));
  }
  const std::vector<uint8_t> phase1 = server.SerializeState();
  server.BuildTree();
  ASSERT_TRUE(server.Absorb(protocol::AheadWireReport{2, 1, 0}));
  const std::vector<uint8_t> phase2 = server.SerializeState();
  ASSERT_EQ(phase1[22], 3);  // p1
  ASSERT_EQ(phase2[23], 1);  // p2

  auto merge = [](std::vector<uint8_t> snapshot) {
    protocol::AheadServer fresh(64, 4, kEps);
    return fresh.MergeSerializedState(snapshot);
  };
  auto set_u64 = [](std::vector<uint8_t>& bytes, size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  EXPECT_EQ(merge(phase1), MergeStatus::kOk);
  EXPECT_EQ(merge(phase2), MergeStatus::kOk);
  for (uint8_t forged : {0, 2, 4, 100}) {
    std::vector<uint8_t> bad = phase1;
    bad[22] = forged;
    EXPECT_EQ(merge(bad), MergeStatus::kMalformedSnapshot) << int{forged};
  }
  for (uint8_t forged : {0, 2}) {
    std::vector<uint8_t> bad = phase2;
    bad[23] = forged;
    EXPECT_EQ(merge(bad), MergeStatus::kMalformedSnapshot) << int{forged};
  }
  // Tallies whose sum wraps uint64 — within one level, and across two —
  // paired with the wrapped total.
  const uint64_t half = uint64_t{1} << 63;
  std::vector<uint8_t> wrap_level = phase1;
  set_u64(wrap_level, 25 + 8 * 2, half);
  set_u64(wrap_level, 25 + 8 * 3, half);
  wrap_level[22] = 2;  // the two other reports, plus 2^64 wrapped to 0
  EXPECT_EQ(merge(wrap_level), MergeStatus::kMalformedSnapshot);
  std::vector<uint8_t> wrap_total = phase1;
  set_u64(wrap_total, 25 + 8 * 2, half);
  set_u64(wrap_total, 57 + 8 * 5, half);
  wrap_total[22] = 1;
  EXPECT_EQ(merge(wrap_total), MergeStatus::kMalformedSnapshot);
}

// --- The service merge plane, over serialized kStateMerge messages -----

std::vector<uint8_t> MergePush(AggregatorService& svc, uint64_t merge_id,
                               uint64_t server_id, uint64_t shard_index,
                               uint64_t shard_count, uint8_t flags,
                               std::span<const uint8_t> snapshot) {
  StateMergeRequest request;
  request.merge_id = merge_id;
  request.server_id = server_id;
  request.shard_index = shard_index;
  request.shard_count = shard_count;
  request.flags = flags;
  return svc.HandleMessage(service::SerializeStateMerge(request, snapshot));
}

StateMergeResponse MustParseAck(std::span<const uint8_t> bytes) {
  StateMergeResponse response;
  EXPECT_EQ(service::ParseStateMergeResponse(bytes, &response),
            ParseError::kOk);
  return response;
}

TEST(ServiceMergePlane, FanInBitIdenticalAcrossWorkersAndPushOrder) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < kShards; ++s) {
      snaps.push_back(
          IngestedServer(spec, {&batches[s], 1})->SerializeState());
    }
    // Expected response bytes, from the single-process reference — the
    // exact math HandleRangeQuery runs on a finalized server.
    std::unique_ptr<AggregatorServer> reference =
        IngestedServer(spec, batches);
    reference->Finalize();
    const std::vector<QueryInterval> intervals = {
        {0, spec.domain - 1}, {3, spec.domain / 2}, {7, 7}};
    RangeQueryResponse expected;
    expected.query_id = 42;
    for (const QueryInterval& interval : intervals) {
      RangeEstimate estimate =
          reference->RangeQueryWithUncertainty(interval.lo, interval.hi);
      expected.estimates.push_back(service::IntervalEstimate{
          estimate.value, estimate.stddev * estimate.stddev});
    }
    const std::vector<uint8_t> expected_bytes =
        service::SerializeRangeQueryResponse(expected);

    for (unsigned workers : {0u, 1u, 4u, 8u}) {
      for (bool reversed : {false, true}) {
        SCOPED_TRACE(std::to_string(workers) +
                     (reversed ? " reversed" : " in order"));
        AggregatorService svc(workers);
        uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
        uint64_t pushed = 0;
        for (int i = 0; i < kShards; ++i) {
          const int s = reversed ? kShards - 1 - i : i;
          StateMergeResponse ack = MustParseAck(
              MergePush(svc, /*merge_id=*/9, id, s, kShards,
                        service::kMergeFlagFinalize, snaps[s]));
          EXPECT_EQ(ack.merge_id, 9u);
          ASSERT_EQ(ack.status, MergeStatus::kOk);
          EXPECT_EQ(ack.shards_received, ++pushed);
        }
        ASSERT_TRUE(svc.server_finalized(id));

        RangeQueryRequest request;
        request.query_id = 42;
        request.server_id = id;
        request.intervals = intervals;
        EXPECT_EQ(
            svc.HandleMessage(service::SerializeRangeQueryRequest(request)),
            expected_bytes);

        service::ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.merge_requests, 3u);
        EXPECT_EQ(stats.merges_completed, 1u);
        EXPECT_EQ(stats.merge_rejects, 0u);
        EXPECT_EQ(stats.merge_would_block, 0u);
        EXPECT_EQ(
            svc.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
            3u);
        EXPECT_EQ(
            svc.registry().GetHistogram("merge.fan_in_ns").Snapshot().count,
            1u);
      }
    }
  }
}

TEST(ServiceMergePlane, ChunksAdmittedDuringAFanInAreAbsorbed) {
  // The fan-in claims the target's strand and reduces with the lock
  // released, so a producer streaming to the same server keeps getting
  // chunks admitted into its queue meanwhile. Every one of them must be
  // absorbed — before the merge's finalize, when the merge carries one —
  // and none may be left queued once the service drains. Looped, because
  // the overlap is a race.
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = uint64_t{1} << 14;  // a reduction long enough to overlap
  spec.eps = kEps;
  constexpr uint64_t kFanIn = 48;
  constexpr uint64_t kChunkReports = 200;
  const std::vector<uint64_t> values = TestValues(kChunkReports, spec.domain);
  const std::vector<uint8_t> chunk = EncodeShardBatch(spec, values, 0xC4);
  const std::vector<uint8_t> snapshot =
      IngestedServer(spec, {&chunk, 1})->SerializeState();

  for (int round = 0; round < 6; ++round) {
    for (bool finalize : {false, true}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   (finalize ? " finalizing" : " merge only"));
      // A queue bound the producer never reaches: it must not block.
      AggregatorService svc(/*worker_threads=*/2,
                            /*queue_high_water=*/uint64_t{1} << 20);
      const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
      const uint8_t flags = finalize ? service::kMergeFlagFinalize : 0;
      for (uint64_t s = 0; s + 1 < kFanIn; ++s) {
        ASSERT_EQ(MustParseAck(MergePush(svc, /*merge_id=*/5, id, s, kFanIn,
                                         flags, snapshot))
                      .status,
                  MergeStatus::kOk);
      }
      const uint64_t kSession = 900 + round;
      svc.HandleMessage(service::SerializeStreamBegin({kSession, id}));
      std::atomic<uint64_t> sent{0};
      std::atomic<bool> merged{false};
      // Chunks sent after a finalizing merge are late; a merge-only round
      // sends none, so nothing after the merge reschedules the strand.
      const uint64_t after_merge = finalize ? 4 : 0;
      std::thread producer([&] {
        uint64_t sequence = 0;
        uint64_t extra = 0;
        while (!merged.load() || extra++ < after_merge) {
          svc.HandleMessage(
              service::SerializeStreamChunk(kSession, sequence++, chunk));
          sent.store(sequence);
          // Paced, so the strand goes idle between chunks and the merge's
          // wait for an idle service ends.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      });
      while (sent.load() < 4) std::this_thread::yield();
      const StateMergeResponse ack = MustParseAck(MergePush(
          svc, /*merge_id=*/5, id, kFanIn - 1, kFanIn, flags, snapshot));
      merged.store(true);
      producer.join();
      ASSERT_EQ(ack.status, MergeStatus::kOk);
      service::StreamEnd end;
      end.session_id = kSession;
      end.chunk_count = sent.load();
      svc.HandleMessage(service::SerializeStreamEnd(end));
      svc.Drain();

      const service::ServiceStats stats = svc.stats();
      EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 0);
      EXPECT_EQ(stats.chunks_absorbed + stats.late_chunks, sent.load());
      if (!finalize) {
        EXPECT_EQ(stats.late_chunks, 0u);
      }
      EXPECT_EQ(svc.server(id).accepted_reports(),
                kChunkReports * (kFanIn + sent.load() - stats.late_chunks));
      EXPECT_EQ(svc.server_finalized(id), finalize);
    }
  }
}

TEST(ServiceMergePlane, TypedErrorMatrix) {
  ServerSpec flat;
  flat.kind = ServerKind::kFlat;
  flat.domain = kDomain;
  flat.eps = kEps;
  ServerSpec haar = flat;
  haar.kind = ServerKind::kHaar;

  std::vector<uint64_t> values = TestValues(60, kDomain);
  const std::vector<uint8_t> flat_batch =
      EncodeShardBatch(flat, values, /*seed=*/1);
  const std::vector<uint8_t> flat_snapshot =
      IngestedServer(flat, {&flat_batch, 1})->SerializeState();

  AggregatorService svc(/*worker_threads=*/0);
  uint64_t flat_id = svc.AddServer(MakeAggregatorServer(flat));
  uint64_t haar_id = svc.AddServer(MakeAggregatorServer(haar));

  // Unroutable shard geometry or bytes: typed, never silent.
  {
    std::vector<uint8_t> junk = protocol::EncodeEnvelope(
        protocol::MechanismTag::kStateMerge, {{0x01, 0x02}});
    StateMergeResponse ack = MustParseAck(svc.HandleMessage(junk));
    EXPECT_EQ(ack.status, MergeStatus::kMalformedRequest);
  }
  EXPECT_EQ(MustParseAck(MergePush(svc, 1, /*server_id=*/99, 0, 1, 0,
                                   flat_snapshot))
                .status,
            MergeStatus::kUnknownServer);
  // A flat snapshot pushed at a haar server: kind mismatch.
  EXPECT_EQ(
      MustParseAck(MergePush(svc, 2, haar_id, 0, 1, 0, flat_snapshot)).status,
      MergeStatus::kMechanismMismatch);
  // Same kind, different budget: config mismatch.
  {
    ServerSpec other_eps = flat;
    other_eps.eps = 2.0;
    std::vector<uint8_t> batch = EncodeShardBatch(other_eps, values, 1);
    std::vector<uint8_t> snapshot =
        IngestedServer(other_eps, {&batch, 1})->SerializeState();
    EXPECT_EQ(
        MustParseAck(MergePush(svc, 3, flat_id, 0, 1, 0, snapshot)).status,
        MergeStatus::kConfigMismatch);
  }
  // A well-framed snapshot whose state body is garbage.
  {
    service::StateSnapshotHeader header;
    header.kind = service::StateKind::kFlat;
    header.dimensions = 1;
    header.domain = kDomain;
    header.fanout = 0;
    header.eps = kEps;
    const uint8_t bad_body[] = {0xFF};  // truncated varint
    std::vector<uint8_t> forged =
        service::SerializeStateSnapshot(header, bad_body);
    EXPECT_EQ(
        MustParseAck(MergePush(svc, 4, flat_id, 0, 1, 0, forged)).status,
        MergeStatus::kMalformedSnapshot);
  }
  // Fan-in group hygiene: replayed shard, disagreeing geometry.
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 0, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kOk);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 0, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kDuplicateShard);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 1, 4, 0, flat_snapshot))
                .status,
            MergeStatus::kInconsistentFanIn);
  // The buffer cap: an over-cap push is deferred, not rejected, and NOT
  // recorded — the identical retry succeeds once space frees up.
  svc.set_merge_buffer_limit(1);  // merge 5 already buffers one shard
  {
    StateMergeResponse ack = MustParseAck(
        MergePush(svc, 5, flat_id, 1, 3, 0, flat_snapshot));
    EXPECT_EQ(ack.status, MergeStatus::kWouldBlock);
    EXPECT_EQ(ack.shards_received, 1u);
  }
  svc.set_merge_buffer_limit(256);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 1, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kOk);
  // A push at a finalized server.
  ASSERT_TRUE(svc.FinalizeServer(haar_id));
  EXPECT_EQ(MustParseAck(MergePush(svc, 6, haar_id, 0, 1, 0, flat_snapshot))
                .status,
            MergeStatus::kAlreadyFinalized);

  service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merge_would_block, 1u);
  EXPECT_EQ(stats.merges_completed, 0u);
  // Every non-transient failure above, including the malformed request.
  EXPECT_EQ(stats.merge_rejects, 8u);
  EXPECT_EQ(stats.merge_requests, 11u);
}

TEST(ServiceMergePlane, StreamedAndMergedIngestCompose) {
  // Half the users stream into the hosted server directly, half arrive
  // as a shard snapshot: the composed aggregate must equal one server
  // that ingested everything.
  ServerSpec spec;
  spec.kind = ServerKind::kTree;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);

  std::unique_ptr<AggregatorServer> reference = IngestedServer(spec, batches);
  reference->Finalize();

  AggregatorService svc(/*worker_threads=*/2);
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  svc.HandleMessage(service::SerializeStreamBegin({1, id}));
  svc.HandleMessage(service::SerializeStreamChunk(1, 0, batches[0]));
  svc.HandleMessage(service::SerializeStreamEnd({1, 1, 0}));
  svc.Drain();

  std::unique_ptr<AggregatorServer> shard = MakeAggregatorServer(spec);
  ASSERT_EQ(shard->AbsorbBatchSerialized(batches[1]), ParseError::kOk);
  ASSERT_EQ(shard->AbsorbBatchSerialized(batches[2]), ParseError::kOk);
  StateMergeResponse ack = MustParseAck(
      MergePush(svc, 8, id, 0, 1, service::kMergeFlagFinalize,
                shard->SerializeState()));
  ASSERT_EQ(ack.status, MergeStatus::kOk);
  ASSERT_TRUE(svc.server_finalized(id));
  EXPECT_EQ(svc.server(id).EstimateFrequencies(),
            reference->EstimateFrequencies());
  EXPECT_EQ(svc.server(id).stats(), reference->stats());
}

// --- Direct-API lifecycle errors ---------------------------------------

TEST(StateMergeApi, FinalizedServersRefuseInEitherDirection) {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(40, kDomain);
  std::vector<uint8_t> batch = EncodeShardBatch(spec, values, 1);

  std::unique_ptr<AggregatorServer> finalized =
      IngestedServer(spec, {&batch, 1});
  std::vector<uint8_t> snapshot = finalized->SerializeState();
  finalized->Finalize();
  EXPECT_EQ(finalized->MergeSerializedState(snapshot),
            MergeStatus::kAlreadyFinalized);

  std::unique_ptr<AggregatorServer> live = MakeAggregatorServer(spec);
  EXPECT_EQ(live->MergeFrom(*finalized), MergeStatus::kAlreadyFinalized);
}

}  // namespace
}  // namespace ldp
