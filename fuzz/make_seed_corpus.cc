// Regenerates the checked-in seed corpus under fuzz/corpus/ from real
// encoded reports (fixed seeds, so the output is deterministic) plus a
// handful of hand-crafted near-valid frames that pin the parser's error
// branches. Usage: make_seed_corpus [corpus_dir]  (default: fuzz/corpus
// relative to the working directory).
//
// Every file written here is replayed on every CTest run by
// tests/fuzz_regression_test.cc, and is a starting point for the
// coverage-guided fuzzers. The checked-in v1_single and *_single_v1
// seeds are captures of the retired unframed v1 format; nothing here
// writes them any more, and they replay as inputs every parser rejects.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "obs/metrics.h"
#include "obs/stats_wire.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace {

using namespace ldp;           // NOLINT(build/namespaces)
using namespace ldp::protocol; // NOLINT(build/namespaces)

std::filesystem::path g_root;

void WriteFile(const std::string& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::filesystem::path path = g_root / dir / name;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

// Replicates the fuzz-target server parameters (fuzz_targets.cc) so the
// absorb seeds exercise the accept path, not just rejection.
constexpr uint64_t kFlatDomain = 64;
constexpr uint64_t kHaarDomain = 64;
constexpr uint64_t kTreeDomain = 128;
constexpr uint64_t kTreeFanout = 4;
constexpr double kEps = 1.0;

void EmitFlat() {
  Rng rng(101);
  FlatHrrClient client(kFlatDomain, kEps);
  WriteFile("flat_absorb", "v2_single", client.EncodeSerialized(7, rng));
  std::vector<uint64_t> values = {1, 5, 9, 33, 63};
  WriteFile("flat_absorb", "v2_batch",
            client.EncodeUsersSerialized(values, rng));
  WriteFile("decode_envelope", "flat_single",
            client.EncodeSerialized(3, rng));
  // Valid frame, out-of-range coefficient: exercises the server-side
  // range rejection rather than the parser.
  WriteFile("flat_absorb", "v2_out_of_range",
            SerializeReport(HrrLayout{}, HrrReport{1u << 20, +1}));
}

void EmitHaar() {
  Rng rng(202);
  HaarHrrClient client(kHaarDomain, kEps);
  WriteFile("haar_absorb", "v2_single", client.EncodeSerialized(20, rng));
  std::vector<uint64_t> values = {0, 8, 16, 32, 63};
  WriteFile("haar_absorb", "v2_batch",
            client.EncodeUsersSerialized(values, rng));
  WriteFile("decode_envelope", "haar_single",
            client.EncodeSerialized(5, rng));
  WriteFile("decode_envelope", "haar_batch",
            client.EncodeUsersSerialized(values, rng));
}

void EmitTree() {
  Rng rng(303);
  TreeHrrClient client(kTreeDomain, kTreeFanout, kEps);
  WriteFile("tree_absorb", "v2_single", client.EncodeSerialized(100, rng));
  std::vector<uint64_t> values = {2, 31, 64, 90, 127};
  WriteFile("tree_absorb", "v2_batch",
            client.EncodeUsersSerialized(values, rng));
  WriteFile("decode_envelope", "tree_single",
            client.EncodeSerialized(11, rng));
}

void EmitOracles() {
  Rng rng(404);
  WriteFile("decode_envelope", "grr",
            SerializeGrrReport(EncodeGrrReport(256, kEps, 37, rng)));
  WriteFile("decode_envelope", "oue",
            SerializeUnaryReport(MechanismTag::kOue,
                                 EncodeOueReport(100, kEps, 42, rng)));
  WriteFile("decode_envelope", "sue",
            SerializeUnaryReport(MechanismTag::kSue,
                                 EncodeSueReport(100, kEps, 17, rng)));
  WriteFile("decode_envelope", "olh",
            SerializeOlhReport(EncodeOlhReport(256, kEps, 99, rng)));
}

// Replicates FuzzAheadAbsorb's server parameters (domain 64, fanout 4,
// eps 1) so the phase-2 seeds land in the accept path of the tree the
// harness builds from them.
void EmitAhead() {
  Rng rng(606);
  AheadClient client(/*domain=*/64, /*fanout=*/4, kEps);
  std::vector<uint8_t> phase1 = client.EncodePhase1Serialized(20, rng);
  WriteFile("ahead_absorb", "v2_phase1", phase1);
  WriteFile("decode_envelope", "ahead_phase1", phase1);

  // The tree a report-free server would build (full split of 64/4): lets
  // the harness's second absorb pass exercise valid phase-2 ingestion,
  // and pins the kAheadTree format for the envelope fuzzer.
  AheadServer server(64, 4, kEps);
  std::vector<uint8_t> tree_msg = server.BuildTree();
  WriteFile("ahead_absorb", "v2_tree", tree_msg);
  WriteFile("decode_envelope", "ahead_tree", tree_msg);
  if (!client.AbsorbTreeDescription(tree_msg)) {
    std::fprintf(stderr, "ahead tree handoff failed\n");
    std::exit(1);
  }
  WriteFile("ahead_absorb", "v2_phase2",
            client.EncodePhase2Serialized(33, rng));
  std::vector<uint64_t> values = {0, 7, 21, 42, 63};
  std::vector<uint8_t> batch =
      client.EncodePhase2UsersSerialized(values, rng);
  WriteFile("ahead_absorb", "v2_batch", batch);
  WriteFile("decode_envelope", "ahead_batch", batch);

  // Forged node ids: past a phase-1 level's node count and past a
  // phase-2 frontier; both exercise the server-side range rejection.
  WriteFile("ahead_absorb", "v2_forged_phase1_node",
            SerializeReport(AheadLayout{}, AheadWireReport{1, 1, 1u << 20}));
  WriteFile("ahead_absorb", "v2_forged_phase2_node",
            SerializeReport(AheadLayout{}, AheadWireReport{2, 1, 1u << 20}));
  // Level 0 is structurally invalid in either phase (parser rejection).
  std::vector<uint8_t> bad_level =
      SerializeReport(AheadLayout{}, AheadWireReport{2, 3, 9});
  bad_level[kEnvelopeHeaderSize + 1] = 0;
  WriteFile("ahead_absorb", "v2_level_zero", bad_level);
  // Truncated mid-payload.
  std::vector<uint8_t> truncated(phase1.begin(), phase1.end() - 4);
  WriteFile("ahead_absorb", "v2_truncated", truncated);
  // Tree with an orphan split (depth-2 node whose parent is a leaf).
  std::vector<uint8_t> orphan_payload;
  AppendVarU64(orphan_payload, 64);
  AppendVarU64(orphan_payload, 4);
  AppendVarU64(orphan_payload, 2);
  AppendU8(orphan_payload, 0);
  AppendVarU64(orphan_payload, 0);
  AppendU8(orphan_payload, 2);
  AppendVarU64(orphan_payload, 5);
  WriteFile("ahead_absorb", "v2_tree_orphan_split",
            EncodeEnvelope(MechanismTag::kAheadTree, orphan_payload));
}

// Replicates FuzzMultiDimAbsorb's server parameters (domain 16 per axis,
// d = 2, eps 1) so the absorb seeds exercise the accept path.
void EmitMultiDim() {
  Rng rng(808);
  MultiDimClient client(/*domain_per_dim=*/16, /*dimensions=*/2, kEps);
  const uint64_t point[2] = {3, 12};
  std::vector<uint8_t> single = client.EncodeSerialized(point, rng);
  WriteFile("multidim_absorb", "v2_single", single);
  WriteFile("decode_envelope", "multidim_single", single);
  std::vector<uint64_t> coords = {0, 0, 3, 12, 15, 15, 7, 8, 2, 9};
  std::vector<uint8_t> batch = client.EncodeUsersSerialized(coords, rng);
  WriteFile("multidim_absorb", "v2_batch", batch);
  WriteFile("decode_envelope", "multidim_batch", batch);

  // Valid frame, cell past the OLH hash range: server-side rejection.
  MultiDimReport forged;
  forged.levels = {1, 0};
  forged.seed = 7;
  forged.cell = 0xFFFFFFFFu;
  WriteFile("multidim_absorb", "v2_cell_out_of_range",
            SerializeReport(MultiDimLayout{2}, forged));
  // Wrong dimensionality for the harness's 2-D server.
  MultiDimReport wrong_dims;
  wrong_dims.levels = {1, 0, 2};
  wrong_dims.seed = 9;
  WriteFile("multidim_absorb", "v2_wrong_dims",
            SerializeReport(MultiDimLayout{3}, wrong_dims));
  // All-root level tuple: structurally invalid (parser rejection).
  std::vector<uint8_t> all_root = single;
  for (size_t i = 0; i < 2; ++i) all_root[kEnvelopeHeaderSize + 1 + i] = 0;
  WriteFile("multidim_absorb", "v2_all_root_tuple", all_root);
  // Truncated mid-item inside a batch.
  std::vector<uint8_t> truncated(batch.begin(), batch.end() - 5);
  WriteFile("multidim_absorb", "v2_truncated_batch", truncated);

  // Box-query request for the query-parser totality branch.
  ldp::service::MultiDimQueryRequest query;
  query.query_id = 11;
  query.server_id = 0;
  query.dimensions = 2;
  ldp::service::QueryBox box;
  box.axes = {{0, 15}, {3, 12}};
  query.boxes = {box};
  WriteFile("multidim_absorb", "v2_box_query",
            ldp::service::SerializeMultiDimQueryRequest(query));
}

void EmitAdversarial() {
  Rng rng(505);
  FlatHrrClient client(kFlatDomain, kEps);
  std::vector<uint8_t> good = client.EncodeSerialized(7, rng);

  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] = 0x00;
  WriteFile("decode_envelope", "bad_magic", bad_magic);

  std::vector<uint8_t> future_version = good;
  future_version[2] = 9;
  WriteFile("decode_envelope", "unsupported_version", future_version);

  std::vector<uint8_t> unknown_mech = good;
  unknown_mech[3] = 0x7F;
  WriteFile("decode_envelope", "unknown_mechanism", unknown_mech);

  // Header claims ~4 GiB of payload; only one byte follows.
  std::vector<uint8_t> huge;
  AppendEnvelopeHeader(huge, MechanismTag::kFlatHrr, 0xFFFFFFF0u);
  huge.push_back(0);
  WriteFile("decode_envelope", "huge_payload_len", huge);

  std::vector<uint8_t> truncated(good.begin(), good.begin() + 5);
  WriteFile("decode_envelope", "truncated_header", truncated);

  std::vector<uint8_t> trailing = good;
  trailing.push_back(0xAA);
  WriteFile("decode_envelope", "trailing_junk", trailing);

  // Batch frame whose count disagrees with the payload size.
  std::vector<uint8_t> payload = {/*count varint=*/3, /*one byte*/ 0x01};
  WriteFile("decode_envelope", "batch_count_mismatch",
            EncodeEnvelope(MechanismTag::kFlatHrrBatch, payload));
}

// Seeds for FuzzStreamSession, which walks its input as a concatenated
// inbound message stream. Server ids replicate the harness: 0 = flat
// (domain 64), 1 = tree (domain 128, fanout 4).
void EmitStream() {
  using ldp::service::kStreamFlagFinalize;
  Rng rng(707);
  FlatHrrClient flat(kFlatDomain, kEps);
  std::vector<uint64_t> values = {1, 5, 9, 33, 63};
  std::vector<uint8_t> chunk0 = flat.EncodeUsersSerialized(values, rng);
  std::vector<uint8_t> chunk1 = flat.EncodeUsersSerialized(values, rng);

  auto concat = [](std::initializer_list<std::vector<uint8_t>> parts) {
    std::vector<uint8_t> out;
    for (const std::vector<uint8_t>& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  auto begin = [](uint64_t session, uint64_t server) {
    return ldp::service::SerializeStreamBegin({session, server});
  };
  auto chunk = [](uint64_t session, uint64_t seq,
                  const std::vector<uint8_t>& nested) {
    return ldp::service::SerializeStreamChunk(session, seq, nested);
  };
  auto end = [](uint64_t session, uint64_t count, uint8_t flags) {
    return ldp::service::SerializeStreamEnd({session, count, flags});
  };

  // A complete happy-path session, finalized by the stream itself.
  WriteFile("stream_session", "v2_stream_full",
            concat({begin(1, 0), chunk(1, 0, chunk0), chunk(1, 1, chunk1),
                    end(1, 2, kStreamFlagFinalize)}));
  // Chunks out of order: must still complete and finalize.
  WriteFile("stream_session", "v2_stream_out_of_order",
            concat({begin(2, 0), chunk(2, 1, chunk1), chunk(2, 0, chunk0),
                    end(2, 2, kStreamFlagFinalize)}));
  // Duplicate session id, then a replayed chunk sequence.
  WriteFile("stream_session", "v2_stream_dup_session",
            concat({begin(3, 0), begin(3, 0), chunk(3, 0, chunk0),
                    end(3, 1, 0)}));
  WriteFile("stream_session", "v2_stream_dup_chunk",
            concat({begin(4, 0), chunk(4, 0, chunk0), chunk(4, 0, chunk0),
                    end(4, 1, kStreamFlagFinalize)}));
  // kStreamEnd cut mid-payload: the stream never completes.
  std::vector<uint8_t> full_end = end(5, 1, kStreamFlagFinalize);
  std::vector<uint8_t> cut_end(full_end.begin(), full_end.end() - 3);
  WriteFile("stream_session", "v2_stream_truncated_end",
            concat({begin(5, 0), chunk(5, 0, chunk0), cut_end}));
  // A flat batch streamed at the tree server: every report rejected,
  // never crashed on.
  WriteFile("stream_session", "v2_stream_wrong_mechanism",
            concat({begin(6, 1), chunk(6, 0, chunk0),
                    end(6, 1, kStreamFlagFinalize)}));
  // Query plane: a valid request and one with a reversed interval.
  ldp::service::RangeQueryRequest query;
  query.query_id = 9;
  query.server_id = 0;
  query.intervals = {{0, 63}, {5, 10}};
  WriteFile("stream_session", "v2_query",
            ldp::service::SerializeRangeQueryRequest(query));
  query.intervals = {{10, 5}};
  WriteFile("stream_session", "v2_query_reversed",
            ldp::service::SerializeRangeQueryRequest(query));
}

// TCP framing seeds: [slab selector][split count][splits u16...] then a
// byte stream (fuzz_targets.cc FuzzTcpFraming). Slab 256 B makes every
// chunk below an oversized frame; slab 4 KiB lends the small ones.
void EmitTcpFraming() {
  using ldp::service::kStreamFlagFinalize;
  Rng rng(909);
  FlatHrrClient flat(kFlatDomain, kEps);
  std::vector<uint64_t> many(90);
  for (size_t i = 0; i < many.size(); ++i) many[i] = (7 * i) % kFlatDomain;
  const std::vector<uint8_t> big = flat.EncodeUsersSerialized(many, rng);
  const std::vector<uint64_t> few = {2, 4, 8};
  const std::vector<uint8_t> small = flat.EncodeUsersSerialized(few, rng);

  auto append = [](std::vector<uint8_t>& out, const std::vector<uint8_t>& m) {
    out.insert(out.end(), m.begin(), m.end());
  };
  auto prefix = [](uint8_t slab_selector, std::vector<uint16_t> splits) {
    std::vector<uint8_t> out = {slab_selector,
                                static_cast<uint8_t>(splits.size() - 1)};
    for (uint16_t split : splits) {
      out.push_back(static_cast<uint8_t>(split & 0xFF));
      out.push_back(static_cast<uint8_t>(split >> 8));
    }
    return out;
  };
  auto session = [&](std::vector<uint8_t>& out, uint64_t id,
                     const std::vector<uint8_t>& nested, size_t chunks) {
    append(out, ldp::service::SerializeStreamBegin({id, 0}));
    for (size_t c = 0; c < chunks; ++c) {
      append(out, ldp::service::SerializeStreamChunk(id, c, nested));
    }
    append(out, ldp::service::SerializeStreamEnd(
                    {id, chunks, kStreamFlagFinalize}));
  };
  ldp::service::RangeQueryRequest query;
  query.query_id = 4;
  query.server_id = 0;
  query.intervals = {{0, 63}, {5, 10}};
  const std::vector<uint8_t> query_bytes =
      ldp::service::SerializeRangeQueryRequest(query);

  // One-byte recvs through 256-byte slabs: every chunk is oversized.
  std::vector<uint8_t> seed = prefix(0, {0});
  session(seed, 1, big, 3);
  append(seed, query_bytes);
  WriteFile("tcp_framing", "oversized_one_byte_splits", seed);

  // Mixed splits through 1 KiB slabs: frames straddle slab ends.
  seed = prefix(2, {6, 299, 2500});
  append(seed, query_bytes);
  session(seed, 2, big, 5);
  append(seed, query_bytes);
  WriteFile("tcp_framing", "straddling_mixed_splits", seed);

  // 4 KiB slabs: small chunks are lent and copied, big ones pinned.
  seed = prefix(4, {100, 1});
  session(seed, 3, small, 4);
  session(seed, 4, big, 2);
  append(seed, query_bytes);
  WriteFile("tcp_framing", "lent_and_pinned_chunks", seed);

  // A framing violation mid-stream, and a partial frame at the end.
  seed = prefix(1, {40});
  session(seed, 5, small, 2);
  std::vector<uint8_t> bad = query_bytes;
  bad[0] ^= 0xFF;
  append(seed, bad);
  WriteFile("tcp_framing", "bad_magic_midstream", seed);
  seed = prefix(3, {13, 700});
  session(seed, 6, big, 1);
  append(seed, std::vector<uint8_t>(big.begin(), big.begin() + 20));
  WriteFile("tcp_framing", "truncated_tail", seed);
}

// Stats-plane seeds: a realistic scrape response built from a live
// registry (counters + gauge + log2 histograms), plus near-valid frames
// pinning the canonical-form checks the parser enforces.
void EmitStats() {
  using ldp::obs::StatsQuery;
  using ldp::obs::StatsResponse;
  using ldp::obs::StatsStatus;

  StatsQuery query;
  query.query_id = 42;
  query.flags = ldp::obs::kStatsFlagIncludeGlobal;
  WriteFile("decode_envelope", "stats_query",
            ldp::obs::SerializeStatsQuery(query));

  ldp::obs::MetricsRegistry registry;
  registry.GetCounter("net.bytes_received").Add(123456);
  registry.GetCounter("service.messages").Add(789);
  registry.GetGauge("service.queue_depth").Add(-3);
  ldp::obs::LatencyHistogram& hist =
      registry.GetHistogram("server0.absorb_batch_ns");
  for (uint64_t v : {0ull, 1ull, 900ull, 1024ull, 55555ull, 1048576ull}) {
    hist.Record(v);
  }
  StatsResponse response;
  response.query_id = 42;
  response.metrics = registry.Snapshot();
  WriteFile("decode_envelope", "stats_response",
            ldp::obs::SerializeStatsResponse(response));

  StatsResponse malformed;
  malformed.query_id = 42;
  malformed.status = StatsStatus::kMalformedRequest;
  WriteFile("decode_envelope", "stats_response_malformed_status",
            ldp::obs::SerializeStatsResponse(malformed));

  // Truncated mid-histogram: total-parser branch coverage.
  std::vector<uint8_t> full = ldp::obs::SerializeStatsResponse(response);
  std::vector<uint8_t> truncated(full.begin(), full.end() - 6);
  WriteFile("decode_envelope", "stats_response_truncated", truncated);

  // Hand-built canonical-form violations (both must parse as
  // kBadPayload, never crash): names out of order, and a histogram whose
  // min does not land in its lowest occupied bucket.
  std::vector<uint8_t> unsorted_payload;
  AppendU64(unsorted_payload, 7);
  AppendU8(unsorted_payload, 0);  // status ok
  AppendU8(unsorted_payload, ldp::obs::kStatsFormatVersion);
  AppendVarU64(unsorted_payload, 2);  // two counters, names descending
  AppendVarU64(unsorted_payload, 1);
  unsorted_payload.push_back('b');
  AppendVarU64(unsorted_payload, 10);
  AppendVarU64(unsorted_payload, 1);
  unsorted_payload.push_back('a');
  AppendVarU64(unsorted_payload, 20);
  AppendVarU64(unsorted_payload, 0);  // gauges
  AppendVarU64(unsorted_payload, 0);  // histograms
  WriteFile("decode_envelope", "stats_response_unsorted_names",
            EncodeEnvelope(MechanismTag::kStatsResponse, unsorted_payload));

  std::vector<uint8_t> bad_min_payload;
  AppendU64(bad_min_payload, 7);
  AppendU8(bad_min_payload, 0);
  AppendU8(bad_min_payload, ldp::obs::kStatsFormatVersion);
  AppendVarU64(bad_min_payload, 0);  // counters
  AppendVarU64(bad_min_payload, 0);  // gauges
  AppendVarU64(bad_min_payload, 1);  // one histogram
  AppendVarU64(bad_min_payload, 1);
  bad_min_payload.push_back('h');
  AppendVarU64(bad_min_payload, 100);  // sum
  AppendVarU64(bad_min_payload, 1);    // min: bucket 1, but lowest is 5
  AppendVarU64(bad_min_payload, 30);   // max
  AppendVarU64(bad_min_payload, 1);    // one occupied bucket
  AppendU8(bad_min_payload, 5);        // bucket 5 = [16, 32)
  AppendVarU64(bad_min_payload, 3);
  WriteFile("decode_envelope", "stats_response_min_outside_bucket",
            EncodeEnvelope(MechanismTag::kStatsResponse, bad_min_payload));
}

// Distributed fan-in state-plane seeds (PR 10): canonical snapshots of
// servers the FuzzDecodeEnvelope merge loop can actually accept (the
// configs replicate its AllServerSpecs(64, 1.0) set plus the 16x16
// fanout-2 grid), and near-valid frames pinning the parser's and
// MergeSerializedState's error branches.
void EmitState() {
  using ldp::service::MakeAggregatorServer;
  using ldp::service::ServerKind;
  using ldp::service::ServerSpec;

  Rng rng(909);
  auto ingest = [](ldp::service::AggregatorServer& server,
                   const std::vector<uint8_t>& batch) {
    uint64_t accepted = 0;
    if (server.AbsorbBatchSerialized(batch, &accepted) != ParseError::kOk ||
        accepted == 0) {
      std::fprintf(stderr, "state seed ingest failed\n");
      std::exit(1);
    }
  };

  // Flat, matching the harness's 64-wide eps-1 server: the merge loop
  // takes the accept path all the way through finalize + query.
  FlatHrrClient flat_client(kFlatDomain, kEps);
  auto flat = MakeAggregatorServer({ServerKind::kFlat, kFlatDomain, kEps});
  const std::vector<uint64_t> flat_values = {1, 5, 9, 33, 63};
  ingest(*flat, flat_client.EncodeUsersSerialized(flat_values, rng));
  std::vector<uint8_t> flat_snapshot = flat->SerializeState();
  WriteFile("decode_envelope", "state_snapshot_flat", flat_snapshot);

  // The same snapshot wrapped as one fan-in push: shard 0 of 2, with
  // the finalize flag.
  ldp::service::StateMergeRequest push;
  push.merge_id = 7;
  push.server_id = 0;
  push.shard_index = 0;
  push.shard_count = 2;
  push.flags = ldp::service::kMergeFlagFinalize;
  WriteFile("decode_envelope", "state_merge_flat",
            ldp::service::SerializeStateMerge(push, flat_snapshot));

  // Tree and AHEAD: the other adaptive 1-D families in the merge loop.
  {
    TreeHrrClient client(/*domain=*/64, kTreeFanout, kEps);
    auto server = MakeAggregatorServer({ServerKind::kTree, 64, kEps});
    const std::vector<uint64_t> values = {2, 31, 47, 63};
    ingest(*server, client.EncodeUsersSerialized(values, rng));
    WriteFile("decode_envelope", "state_snapshot_tree",
              server->SerializeState());
  }
  {
    AheadClient client(/*domain=*/64, /*fanout=*/4, kEps);
    auto server = MakeAggregatorServer({ServerKind::kAhead, 64, kEps});
    std::vector<AheadWireReport> reports;
    for (uint64_t v : {3u, 17u, 42u}) {
      reports.push_back(client.EncodePhase1(v, rng));
    }
    ingest(*server, SerializeReportBatch(AheadLayout{}, reports));
    WriteFile("decode_envelope", "state_snapshot_ahead",
              server->SerializeState());
    // The phase-2 era: tree installed, frontier tallies present, so the
    // merge loop runs the frontier restore and the tree-adopting merge.
    // Its own stream keeps `rng`'s later draws, and their seeds, as they
    // were.
    Rng phase2_rng(910);
    auto& ahead = static_cast<AheadServer&>(*server);
    if (!client.AbsorbTreeDescription(ahead.BuildTree())) {
      std::fprintf(stderr, "ahead tree handoff failed\n");
      std::exit(1);
    }
    const std::vector<uint64_t> values = {5, 17, 40, 63};
    ingest(*server, client.EncodePhase2UsersSerialized(values, phase2_rng));
    WriteFile("decode_envelope", "state_snapshot_ahead_tree",
              server->SerializeState());
  }
  // Grid, matching the harness's 16x16 fanout-2 spec.
  {
    MultiDimClient client(/*domain_per_dim=*/16, /*dimensions=*/2, kEps,
                          /*fanout=*/2);
    ServerSpec spec;
    spec.kind = ServerKind::kGrid;
    spec.domain = 16;
    spec.dimensions = 2;
    spec.fanout = 2;
    auto server = MakeAggregatorServer(spec);
    const std::vector<uint64_t> coords = {0, 0, 3, 12, 15, 15};
    ingest(*server, client.EncodeUsersSerialized(coords, rng));
    WriteFile("decode_envelope", "state_snapshot_grid",
              server->SerializeState());
  }

  // Epsilon mismatch: parses fine, every merge rejects (kConfigMismatch).
  {
    FlatHrrClient client(kFlatDomain, /*eps=*/2.0);
    auto server = MakeAggregatorServer({ServerKind::kFlat, kFlatDomain, 2.0});
    const std::vector<uint64_t> values = {2, 4};
    ingest(*server, client.EncodeUsersSerialized(values, rng));
    WriteFile("decode_envelope", "state_snapshot_eps_mismatch",
              server->SerializeState());
  }
  // Forged kind byte (parser rejection) and a cut mid-payload.
  std::vector<uint8_t> forged_kind = flat_snapshot;
  forged_kind[kEnvelopeHeaderSize] = 0x7F;
  WriteFile("decode_envelope", "state_snapshot_forged_kind", forged_kind);
  std::vector<uint8_t> truncated(flat_snapshot.begin(),
                                 flat_snapshot.end() - 5);
  WriteFile("decode_envelope", "state_snapshot_truncated", truncated);

  // Valid header, garbage body (a lone truncated varint): frames as a
  // snapshot, MergeSerializedState rejects it (kMalformedSnapshot).
  {
    ldp::service::StateSnapshotHeader header;
    header.kind = ldp::service::StateKind::kFlat;
    header.dimensions = 1;
    header.domain = kFlatDomain;
    header.fanout = 0;
    header.eps = kEps;
    header.accepted = 1;
    header.rejected = 0;
    const std::vector<uint8_t> junk = {0xFF};
    WriteFile("decode_envelope", "state_snapshot_bad_body",
              ldp::service::SerializeStateSnapshot(header, junk));
  }
  // Impossible shard geometry (index >= count): parser rejection.
  {
    std::vector<uint8_t> payload;
    AppendU64(payload, 7);
    AppendU64(payload, 0);
    AppendVarU64(payload, 5);  // shard_index
    AppendVarU64(payload, 2);  // shard_count
    AppendU8(payload, 0);
    payload.insert(payload.end(), flat_snapshot.begin(),
                   flat_snapshot.end());
    WriteFile("decode_envelope", "state_merge_bad_geometry",
              EncodeEnvelope(MechanismTag::kStateMerge, payload));
  }
  // Typed acks: the happy path and the backpressure signal.
  {
    ldp::service::StateMergeResponse ack;
    ack.merge_id = 7;
    ack.status = ldp::service::MergeStatus::kOk;
    ack.shards_received = 1;
    WriteFile("decode_envelope", "state_merge_response_ok",
              ldp::service::SerializeStateMergeResponse(ack));
    ack.status = ldp::service::MergeStatus::kWouldBlock;
    ack.shards_received = 0;
    WriteFile("decode_envelope", "state_merge_response_would_block",
              ldp::service::SerializeStateMergeResponse(ack));
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? std::filesystem::path(argv[1])
                    : std::filesystem::path("fuzz/corpus");
  EmitFlat();
  EmitHaar();
  EmitTree();
  EmitAhead();
  EmitMultiDim();
  EmitOracles();
  EmitAdversarial();
  EmitStream();
  EmitTcpFraming();
  EmitStats();
  EmitState();
  return 0;
}
