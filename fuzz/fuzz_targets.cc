#include "fuzz_targets.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "net/tcp_front_end.h"
#include "obs/stats_wire.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/level_hrr.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/report_codec.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

// Semantic invariant check: unlike assert() it survives NDEBUG builds,
// and unlike LDP_CHECK it cannot be mistaken for input validation — a
// trap here is always a parser bug, never "the fuzzer found bad input".
#define LDP_FUZZ_ASSERT(cond) \
  do {                        \
    if (!(cond)) __builtin_trap(); \
  } while (0)

namespace ldp::fuzz {

namespace {

using protocol::Envelope;
using protocol::ParseError;

std::span<const uint8_t> AsSpan(const uint8_t* data, size_t size) {
  return std::span<const uint8_t>(data, size);
}

}  // namespace

int FuzzDecodeEnvelope(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);

  Envelope env;
  ParseError err = protocol::DecodeEnvelope(bytes, &env);
  if (err == ParseError::kOk) {
    LDP_FUZZ_ASSERT(env.version == protocol::kWireVersionV2);
    LDP_FUZZ_ASSERT(
        protocol::IsKnownMechanismTag(static_cast<uint8_t>(env.mechanism)));
    LDP_FUZZ_ASSERT(env.payload.size() ==
                    bytes.size() - protocol::kEnvelopeHeaderSize);
    LDP_FUZZ_ASSERT(protocol::MechanismTagName(env.mechanism) != "?");
  }
  LDP_FUZZ_ASSERT(protocol::ParseErrorName(err) != "?");

  // Every typed parser must be total over the same bytes, and whatever
  // parses must be in-spec.
  const protocol::LevelHrrLayout kHaarLayout{protocol::MechanismTag::kHaarHrr};
  const protocol::LevelHrrLayout kTreeLayout{protocol::MechanismTag::kTreeHrr};
  HrrReport flat;
  if (protocol::ParseReport(protocol::HrrLayout{}, bytes, &flat) ==
      ParseError::kOk) {
    LDP_FUZZ_ASSERT(flat.sign == 1 || flat.sign == -1);
  }
  protocol::LevelHrrReport haar;
  if (protocol::ParseReport(kHaarLayout, bytes, &haar) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(haar.level >= 1);
    LDP_FUZZ_ASSERT(haar.inner.sign == 1 || haar.inner.sign == -1);
  }
  protocol::LevelHrrReport tree;
  if (protocol::ParseReport(kTreeLayout, bytes, &tree) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(tree.level >= 1);
    LDP_FUZZ_ASSERT(tree.inner.sign == 1 || tree.inner.sign == -1);
  }

  std::vector<HrrReport> flat_batch;
  uint64_t malformed = 0;
  if (protocol::ParseReportBatch(protocol::HrrLayout{}, bytes, &flat_batch,
                                &malformed) == ParseError::kOk) {
    for (const HrrReport& r : flat_batch) {
      LDP_FUZZ_ASSERT(r.sign == 1 || r.sign == -1);
    }
    LDP_FUZZ_ASSERT(flat_batch.size() + malformed <= bytes.size());
  }
  std::vector<protocol::LevelHrrReport> haar_batch;
  if (protocol::ParseReportBatch(kHaarLayout, bytes, &haar_batch) ==
      ParseError::kOk) {
    for (const protocol::LevelHrrReport& r : haar_batch) {
      LDP_FUZZ_ASSERT(r.level >= 1);
    }
  }
  std::vector<protocol::LevelHrrReport> tree_batch;
  if (protocol::ParseReportBatch(kTreeLayout, bytes, &tree_batch) ==
      ParseError::kOk) {
    for (const protocol::LevelHrrReport& r : tree_batch) {
      LDP_FUZZ_ASSERT(r.level >= 1);
    }
  }

  protocol::AheadWireReport ahead;
  if (protocol::ParseReport(protocol::AheadLayout{}, bytes, &ahead) ==
      ParseError::kOk) {
    LDP_FUZZ_ASSERT(ahead.phase == 1 || ahead.phase == 2);
    LDP_FUZZ_ASSERT(ahead.level >= 1);
  }
  std::vector<protocol::AheadWireReport> ahead_batch;
  if (protocol::ParseReportBatch(protocol::AheadLayout{}, bytes,
                                &ahead_batch) == ParseError::kOk) {
    for (const protocol::AheadWireReport& r : ahead_batch) {
      LDP_FUZZ_ASSERT(r.phase == 1 || r.phase == 2);
    }
  }
  {
    uint64_t domain = 0;
    uint64_t fanout = 0;
    std::optional<AdaptiveTree> tree;
    if (protocol::ParseAheadTree(bytes, &domain, &fanout, &tree) ==
        ParseError::kOk) {
      LDP_FUZZ_ASSERT(tree.has_value());
      LDP_FUZZ_ASSERT(fanout >= 2 &&
                      fanout <= protocol::kMaxAheadTreeFanout);
      LDP_FUZZ_ASSERT(tree->nodes().size() <=
                      protocol::kMaxAheadTreeNodes);
      LDP_FUZZ_ASSERT(tree->num_levels() >= 1);
    }
  }

  obs::StatsQuery stats_query;
  if (obs::ParseStatsQuery(bytes, &stats_query) == ParseError::kOk) {
    // The query payload is fixed-width with no slack, so serialization
    // must reproduce the input exactly.
    std::vector<uint8_t> reencoded = obs::SerializeStatsQuery(stats_query);
    LDP_FUZZ_ASSERT(std::equal(reencoded.begin(), reencoded.end(),
                               bytes.begin(), bytes.end()));
  }
  obs::StatsResponse stats_response;
  if (obs::ParseStatsResponse(bytes, &stats_response) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(stats_response.format_version ==
                    obs::kStatsFormatVersion);
    LDP_FUZZ_ASSERT(obs::StatsStatusName(stats_response.status) != "?");
    for (const obs::HistogramValue& h : stats_response.metrics.histograms) {
      // Derived-count coherence and quantile sanity on whatever parsed.
      uint64_t bucket_total = 0;
      for (uint64_t b : h.histogram.buckets) bucket_total += b;
      LDP_FUZZ_ASSERT(h.histogram.count == bucket_total);
      if (h.histogram.count > 0) {
        uint64_t p50 = h.histogram.Quantile(0.50);
        LDP_FUZZ_ASSERT(p50 >= h.histogram.min && p50 <= h.histogram.max);
      }
    }
    // Round-trip fixpoint (byte identity with the input would be too
    // strong: ReadVarU64 tolerates non-minimal varints, the serializer
    // always emits minimal ones): re-serializing and re-parsing must
    // reproduce the same message, and that wire form must be stable.
    std::vector<uint8_t> reencoded =
        obs::SerializeStatsResponse(stats_response);
    obs::StatsResponse reparsed;
    LDP_FUZZ_ASSERT(obs::ParseStatsResponse(reencoded, &reparsed) ==
                    ParseError::kOk);
    LDP_FUZZ_ASSERT(reparsed == stats_response);
    LDP_FUZZ_ASSERT(obs::SerializeStatsResponse(reparsed) == reencoded);
  }

  // State plane (distributed fan-in): the three typed parsers must be
  // total, and a snapshot that frames must be totally *handled* by every
  // mechanism family — merged when header+body match the target's exact
  // configuration, a typed error otherwise, never a crash.
  {
    service::StateSnapshotHeader snapshot;
    if (service::ParseStateSnapshot(bytes, &snapshot) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(
          service::IsKnownStateKind(static_cast<uint8_t>(snapshot.kind)));
      LDP_FUZZ_ASSERT(service::StateKindName(snapshot.kind) != "?");
      LDP_FUZZ_ASSERT(snapshot.domain >= 2 &&
                      snapshot.domain <= service::kMaxStateDomain);
      LDP_FUZZ_ASSERT(std::isfinite(snapshot.eps) && snapshot.eps > 0.0);
      std::vector<service::ServerSpec> specs =
          service::AllServerSpecs(/*domain=*/64, /*eps=*/1.0);
      service::ServerSpec grid;
      grid.kind = service::ServerKind::kGrid;
      grid.domain = 16;
      grid.dimensions = 2;
      grid.fanout = 2;
      specs.push_back(grid);
      for (const service::ServerSpec& spec : specs) {
        auto server = service::MakeAggregatorServer(spec);
        service::MergeStatus status = server->MergeSerializedState(bytes);
        LDP_FUZZ_ASSERT(service::MergeStatusName(status) != "?");
        if (status == service::MergeStatus::kOk) {
          // A merged snapshot must leave the server queryable, and its
          // restored state must re-serialize canonically: merging that
          // re-serialization into a fresh twin succeeds.
          auto twin = service::MakeAggregatorServer(spec);
          LDP_FUZZ_ASSERT(twin->MergeSerializedState(
                              server->SerializeState()) ==
                          service::MergeStatus::kOk);
          server->Finalize();
          LDP_FUZZ_ASSERT(
              !std::isnan(server->RangeQuery(0, server->domain() - 1)));
        }
      }
    }
  }
  {
    service::StateMergeRequest merge;
    if (service::ParseStateMerge(bytes, &merge) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(merge.shard_count >= 1 &&
                      merge.shard_count <= service::kMaxMergeShards);
      LDP_FUZZ_ASSERT(merge.shard_index < merge.shard_count);
      LDP_FUZZ_ASSERT((merge.flags & ~service::kMergeFlagFinalize) == 0);
      // The nested bytes must at least re-frame as a snapshot envelope.
      Envelope nested;
      LDP_FUZZ_ASSERT(protocol::DecodeEnvelope(merge.snapshot, &nested) ==
                      ParseError::kOk);
      LDP_FUZZ_ASSERT(nested.mechanism ==
                      protocol::MechanismTag::kStateSnapshot);
    }
  }
  {
    service::StateMergeResponse ack;
    if (service::ParseStateMergeResponse(bytes, &ack) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(
          service::IsKnownMergeStatus(static_cast<uint8_t>(ack.status)));
      LDP_FUZZ_ASSERT(service::MergeStatusName(ack.status) != "?");
      // Round-trip fixpoint (byte identity would be too strong: the
      // parser tolerates non-minimal varints, the serializer emits
      // minimal ones).
      std::vector<uint8_t> reencoded =
          service::SerializeStateMergeResponse(ack);
      service::StateMergeResponse reparsed;
      LDP_FUZZ_ASSERT(service::ParseStateMergeResponse(
                          reencoded, &reparsed) == ParseError::kOk);
      LDP_FUZZ_ASSERT(reparsed == ack);
    }
  }

  protocol::GrrWireReport grr;
  (void)protocol::ParseGrrReport(bytes, &grr);
  protocol::OlhWireReport olh;
  (void)protocol::ParseOlhReport(bytes, &olh);
  protocol::UnaryWireReport unary;
  if (protocol::ParseUnaryReport(protocol::MechanismTag::kOue, bytes,
                                 &unary) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(unary.packed.size() == (unary.num_bits + 7) / 8);
  }
  if (protocol::ParseUnaryReport(protocol::MechanismTag::kSue, bytes,
                                 &unary) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(unary.packed.size() == (unary.num_bits + 7) / 8);
  }
  return 0;
}

namespace {

// Shared absorb-path shape: feed the bytes down both the single-report
// and batch ingestion paths, then finalize and query. The accounting
// invariant — every byte buffer is either accepted or rejected, exactly
// once per ingestion call — holds for all three servers.
template <typename Server>
int FuzzAbsorb(Server& server, std::span<const uint8_t> bytes,
               uint64_t domain) {
  server.AbsorbSerialized(bytes);
  uint64_t ingested_once = server.accepted_reports() +
                           server.rejected_reports();
  LDP_FUZZ_ASSERT(ingested_once == 1);

  uint64_t accepted = 0;
  protocol::ParseError err = server.AbsorbBatchSerialized(bytes, &accepted);
  if (err != protocol::ParseError::kOk) {
    LDP_FUZZ_ASSERT(accepted == 0);
  }
  LDP_FUZZ_ASSERT(server.accepted_reports() >= accepted);

  server.Finalize();
  double total = server.RangeQuery(0, domain - 1);
  LDP_FUZZ_ASSERT(std::isfinite(total));
  // Levels without reports have infinite variance; a range that does not
  // use them must not turn that into NaN.
  LDP_FUZZ_ASSERT(
      !std::isnan(server.RangeQueryWithUncertainty(0, domain - 1).stddev));
  return 0;
}

}  // namespace

int FuzzFlatAbsorb(const uint8_t* data, size_t size) {
  protocol::FlatHrrServer server(/*domain=*/64, /*eps=*/1.0);
  return FuzzAbsorb(server, AsSpan(data, size), 64);
}

int FuzzHaarAbsorb(const uint8_t* data, size_t size) {
  protocol::HaarHrrServer server(/*domain=*/64, /*eps=*/1.0);
  return FuzzAbsorb(server, AsSpan(data, size), 64);
}

int FuzzTreeAbsorb(const uint8_t* data, size_t size) {
  protocol::TreeHrrServer server(/*domain=*/128, /*fanout=*/4,
                                 /*eps=*/1.0);
  return FuzzAbsorb(server, AsSpan(data, size), 128);
}

int FuzzAheadAbsorb(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);
  protocol::AheadServer server(/*domain=*/64, /*fanout=*/4, /*eps=*/1.0);

  // Phase-1 era: exactly one accept-or-reject per single ingestion call.
  server.AbsorbSerialized(bytes);
  LDP_FUZZ_ASSERT(server.accepted_reports() + server.rejected_reports() ==
                  1);

  // The phase transition must be well-defined whatever arrived, and its
  // broadcast must parse back (server and client agree on the format).
  std::vector<uint8_t> tree_msg = server.BuildTree();
  {
    uint64_t domain = 0;
    uint64_t fanout = 0;
    std::optional<AdaptiveTree> tree;
    LDP_FUZZ_ASSERT(protocol::ParseAheadTree(tree_msg, &domain, &fanout,
                                             &tree) == ParseError::kOk);
    LDP_FUZZ_ASSERT(domain == 64 && fanout == 4);
  }

  // Phase-2 era: the same bytes again (a phase-1 report is now stale and
  // must be rejected, a forged phase-2 report range-checked), then the
  // batch path.
  server.AbsorbSerialized(bytes);
  uint64_t accepted = 0;
  ParseError err = server.AbsorbBatchSerialized(bytes, &accepted);
  if (err != ParseError::kOk) {
    LDP_FUZZ_ASSERT(accepted == 0);
  }
  LDP_FUZZ_ASSERT(server.accepted_reports() >= accepted);

  server.Finalize();
  double total = server.RangeQuery(0, 63);
  LDP_FUZZ_ASSERT(std::isfinite(total));
  for (double f : server.EstimateFrequencies()) {
    LDP_FUZZ_ASSERT(std::isfinite(f));
  }
  return 0;
}

int FuzzMultiDimAbsorb(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);

  // Typed parser totality: whatever parses must be in-spec.
  protocol::MultiDimReport report;
  if (protocol::ParseReport(protocol::MultiDimLayout{}, bytes, &report) ==
      ParseError::kOk) {
    LDP_FUZZ_ASSERT(!report.levels.empty());
    LDP_FUZZ_ASSERT(report.levels.size() <= protocol::kMaxWireDimensions);
    bool nontrivial = false;
    for (uint8_t level : report.levels) nontrivial |= level != 0;
    LDP_FUZZ_ASSERT(nontrivial);
  }
  {
    std::vector<protocol::MultiDimReport> reports;
    uint64_t malformed = 0;
    if (protocol::ParseReportBatch(protocol::MultiDimLayout{}, bytes, &reports,
                                  &malformed) == ParseError::kOk) {
      for (const protocol::MultiDimReport& r : reports) {
        LDP_FUZZ_ASSERT(!r.levels.empty());
        LDP_FUZZ_ASSERT(r.levels.size() == reports.front().levels.size());
      }
    }
  }
  {
    service::MultiDimQueryRequest request;
    if (ParseMultiDimQueryRequest(bytes, &request) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(request.dimensions >= 1);
      LDP_FUZZ_ASSERT(request.dimensions <= protocol::kMaxWireDimensions);
      for (const service::QueryBox& box : request.boxes) {
        LDP_FUZZ_ASSERT(box.axes.size() == request.dimensions);
      }
    }
  }

  // Server ingestion contract, mirroring FuzzAbsorb for the 1-D servers.
  protocol::MultiDimServer server(/*domain_per_dim=*/16, /*dimensions=*/2,
                                  /*eps=*/1.0);
  server.AbsorbSerialized(bytes);
  LDP_FUZZ_ASSERT(server.accepted_reports() + server.rejected_reports() ==
                  1);
  uint64_t accepted = 0;
  ParseError err = server.AbsorbBatchSerialized(bytes, &accepted);
  if (err != ParseError::kOk) {
    LDP_FUZZ_ASSERT(accepted == 0);
  }
  LDP_FUZZ_ASSERT(server.accepted_reports() >= accepted);

  server.Finalize();
  const AxisInterval box[2] = {{0, 15}, {3, 12}};
  LDP_FUZZ_ASSERT(std::isfinite(server.BoxQuery(box)));
  RangeEstimate est = server.BoxQueryWithUncertainty(box);
  LDP_FUZZ_ASSERT(std::isfinite(est.value));
  // Tuples that saw no reports advertise infinite variance on purpose,
  // so the envelope may be +inf here — but never NaN.
  LDP_FUZZ_ASSERT(!std::isnan(est.stddev));
  LDP_FUZZ_ASSERT(std::isfinite(server.RangeQuery(0, 15)));
  return 0;
}

int FuzzStreamSession(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);
  // Two hosted mechanism instances so server-id routing, concurrent
  // strands, and cross-mechanism chunk payloads are all reachable.
  service::AggregatorService svc(/*worker_threads=*/2);
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kFlat;
  spec.domain = 64;
  spec.eps = 1.0;
  uint64_t flat_id = svc.AddServer(service::MakeAggregatorServer(spec));
  spec.kind = service::ServerKind::kTree;
  spec.domain = 128;
  uint64_t tree_id = svc.AddServer(service::MakeAggregatorServer(spec));

  // Walk the blob as the service's inbound byte stream: each framed
  // region is one message (its declared payload clipped to what is
  // present), unframeable regions advance a byte so every offset is
  // explored.
  size_t offset = 0;
  int handled = 0;
  while (offset < bytes.size() && handled < 64) {
    std::span<const uint8_t> rest = bytes.subspan(offset);
    size_t advance = 1;
    if (rest.size() >= protocol::kEnvelopeHeaderSize &&
        protocol::LooksLikeEnvelope(rest)) {
      uint32_t payload_len = 0;
      for (int i = 0; i < 4; ++i) {
        payload_len |= static_cast<uint32_t>(rest[4 + i]) << (8 * i);
      }
      size_t total = std::min(
          protocol::kEnvelopeHeaderSize + static_cast<size_t>(payload_len),
          rest.size());
      svc.HandleMessage(rest.first(total));
      ++handled;
      advance = total;
    }
    offset += advance;
  }
  svc.Drain();
  service::ServiceStats stats = svc.stats();
  LDP_FUZZ_ASSERT(stats.chunks_absorbed == stats.chunks_enqueued);

  // Whatever arrived, both servers finalize (unless a stream already
  // did) and answer over the wire with a parseable, non-NaN response.
  svc.FinalizeServer(flat_id);
  svc.FinalizeServer(tree_id);
  for (uint64_t id : {flat_id, tree_id}) {
    LDP_FUZZ_ASSERT(svc.server_finalized(id));
    service::RangeQueryRequest request;
    request.query_id = 1;
    request.server_id = id;
    request.intervals = {{0, svc.server(id).domain() - 1}, {3, 9}};
    std::vector<uint8_t> reply =
        svc.HandleMessage(service::SerializeRangeQueryRequest(request));
    service::RangeQueryResponse response;
    LDP_FUZZ_ASSERT(service::ParseRangeQueryResponse(reply, &response) ==
                    ParseError::kOk);
    LDP_FUZZ_ASSERT(response.status == service::QueryStatus::kOk);
    LDP_FUZZ_ASSERT(response.estimates.size() == 2);
    for (const service::IntervalEstimate& e : response.estimates) {
      // Estimates from arbitrary reports stay non-NaN; variance may be
      // +inf when zero reports were accepted.
      LDP_FUZZ_ASSERT(!std::isnan(e.estimate));
      LDP_FUZZ_ASSERT(!std::isnan(e.variance));
    }
  }
  return 0;
}

int FuzzTcpFraming(const uint8_t* data, size_t size) {
  // [slab selector u8][split count u8][count x split u16][stream...]:
  // slabs of 256 B to 4 KiB, so small inputs reach slab switches, lent
  // small chunks and the oversized-frame buffer; each split is one "recv"
  // of 1 byte to three slabs.
  std::span<const uint8_t> bytes = AsSpan(data, size);
  auto take_u8 = [&]() -> uint8_t {
    if (bytes.empty()) return 0;
    const uint8_t v = bytes[0];
    bytes = bytes.subspan(1);
    return v;
  };
  const size_t slab = size_t{256} << (take_u8() % 5);
  std::vector<size_t> schedule(1 + take_u8() % 8);
  for (size_t& split : schedule) {
    const size_t v = take_u8() | (size_t{take_u8()} << 8);
    split = 1 + v % (3 * slab);
  }
  const std::span<const uint8_t> stream = bytes;
  constexpr uint64_t kMaxMessage = uint64_t{1} << 16;

  auto build = [](service::AggregatorService& svc) {
    service::ServerSpec spec;
    spec.kind = service::ServerKind::kFlat;
    spec.domain = 64;
    spec.eps = 1.0;
    svc.AddServer(service::MakeAggregatorServer(spec));
    spec.kind = service::ServerKind::kTree;
    spec.domain = 128;
    svc.AddServer(service::MakeAggregatorServer(spec));
  };

  // Reference: frame the whole stream at once on the same magic and
  // length rules and hand each frame to one-shot HandleMessage.
  service::AggregatorService reference(/*worker_threads=*/0);
  build(reference);
  std::vector<std::vector<uint8_t>> expected;
  size_t offset = 0;
  bool expected_bad = false;
  while (stream.size() - offset >= protocol::kEnvelopeHeaderSize) {
    const std::span<const uint8_t> head = stream.subspan(offset);
    if (head[0] != protocol::kEnvelopeMagic0 ||
        head[1] != protocol::kEnvelopeMagic1) {
      expected_bad = true;
      break;
    }
    uint64_t total = protocol::kEnvelopeHeaderSize;
    for (int i = 0; i < 4; ++i) total += uint64_t{head[4 + i]} << (8 * i);
    if (total > kMaxMessage) {
      expected_bad = true;
      break;
    }
    if (head.size() < total) break;
    std::vector<uint8_t> reply =
        reference.HandleMessage(head.first(static_cast<size_t>(total)));
    if (!reply.empty()) expected.push_back(std::move(reply));
    offset += static_cast<size_t>(total);
  }

  // The slab framer, fed split by split as the front end feeds it.
  service::AggregatorService svc(/*worker_threads=*/0);
  build(svc);
  net::SlabFramer framer(net::SlabPool::Create(slab), kMaxMessage);
  std::vector<std::vector<uint8_t>> got;
  bool got_bad = false;
  size_t fed = 0;
  for (size_t step = 0; fed < stream.size() && !got_bad; ++step) {
    const std::span<uint8_t> room = framer.WritableSpan();
    LDP_FUZZ_ASSERT(!room.empty());
    const size_t n = std::min(
        {schedule[step % schedule.size()], room.size(), stream.size() - fed});
    std::copy_n(stream.data() + fed, n, room.data());
    framer.Commit(n);
    fed += n;
    while (true) {
      std::vector<uint8_t> reply;
      uint64_t blocked = 0;
      const net::SlabFramer::Step routed =
          framer.RouteNext(svc, &reply, &blocked);
      LDP_FUZZ_ASSERT(routed != net::SlabFramer::Step::kWouldBlock);
      if (routed == net::SlabFramer::Step::kBadFrame) got_bad = true;
      if (routed != net::SlabFramer::Step::kRouted) break;
      if (!reply.empty()) got.push_back(std::move(reply));
    }
  }

  // Same frames, same order, same outcome — whatever the split.
  LDP_FUZZ_ASSERT(got_bad == expected_bad);
  if (!got_bad) LDP_FUZZ_ASSERT(framer.buffered() == stream.size() - offset);
  LDP_FUZZ_ASSERT(got.size() == expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    // Scrape answers carry live latencies; everything else is exact.
    if (got[i].size() > 3 &&
        got[i][3] ==
            static_cast<uint8_t>(protocol::MechanismTag::kStatsResponse)) {
      LDP_FUZZ_ASSERT(expected[i].size() > 3 && expected[i][3] == got[i][3]);
    } else {
      LDP_FUZZ_ASSERT(got[i] == expected[i]);
    }
  }
  LDP_FUZZ_ASSERT(svc.stats() == reference.stats());
  for (uint64_t id = 0; id < 2; ++id) {
    LDP_FUZZ_ASSERT(svc.server(id).stats() == reference.server(id).stats());
    svc.FinalizeServer(id);
    reference.FinalizeServer(id);
    service::RangeQueryRequest request;
    request.query_id = 3;
    request.server_id = id;
    request.intervals = {{0, svc.server(id).domain() - 1}, {2, 40}};
    const std::vector<uint8_t> query =
        service::SerializeRangeQueryRequest(request);
    LDP_FUZZ_ASSERT(svc.HandleMessage(query) == reference.HandleMessage(query));
  }
  return 0;
}

}  // namespace ldp::fuzz
