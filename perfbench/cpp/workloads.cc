#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "data/distributions.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/stream_wire.h"

namespace ldpbench {

using ldp::service::ServerKind;
using ldp::service::ServerSpec;

WorkloadConfig MakeConfig(const std::string& workload, double seconds,
                          bool smoke) {
  WorkloadConfig c;
  c.workload = workload;
  c.seconds = seconds;
  c.eps = std::log(3.0);
  if (workload == "ingest_wire") {
    // 1000 chunks: below the service's 1024-chunk queue bound, so a round
    // is never throttled by backpressure and its backlog is what the
    // strand has not absorbed when sending ends.
    c.users = smoke ? uint64_t{1} << 18 : 2'000'000;
    c.probes = smoke ? 16 : 64;
    c.burst = smoke ? 128 : 1024;
    // Rounds start at a fixed cadence (a round takes 60-100 ms at full
    // size), so the run fills --seconds with a server count that does not
    // depend on how fast the host is.
    c.round_period_s = smoke ? 0.2 : 0.125;
    c.rounds = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::floor(seconds / c.round_period_s)));
    c.fanin_every = smoke ? 1 : 6;
    const uint64_t groups = (c.rounds + c.fanin_every - 1) / c.fanin_every;
    c.layout.assign(c.rounds + groups, HaarSpec(c));
  } else if (workload == "serve_mixed") {
    c.tree_users = smoke ? uint64_t{1} << 15 : uint64_t{1} << 20;
    c.shard_users = smoke ? uint64_t{1} << 13 : uint64_t{1} << 18;
    c.query_rate = smoke ? 500.0 : 10000.0;
    c.ingest_rate = smoke ? 2e5 : 4e6;
    c.epoch_s = 0.5;
    c.group_interval_s = smoke ? 0.25 : 0.125;
    c.epochs = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(seconds / c.epoch_s)));
    c.groups = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(seconds / c.group_interval_s)));
    c.query_set = smoke ? 256 : 4096;
    c.probes = smoke ? 16 : 64;
    c.layout.push_back(TreeSpec(c));  // kMixedTreeServer
    for (uint64_t e = 0; e < c.epochs; ++e) c.layout.push_back(FlatSpec(c));
    for (uint64_t g = 0; g < c.groups; ++g) c.layout.push_back(TreeSpec(c));
  }
  return c;
}

ServerSpec HaarSpec(const WorkloadConfig& c) {
  ServerSpec s;
  s.kind = ServerKind::kHaar;
  s.domain = c.domain;
  s.eps = c.eps;
  return s;
}

ServerSpec FlatSpec(const WorkloadConfig& c) {
  ServerSpec s = HaarSpec(c);
  s.kind = ServerKind::kFlat;
  return s;
}

ServerSpec TreeSpec(const WorkloadConfig& c) {
  ServerSpec s = HaarSpec(c);
  s.kind = ServerKind::kTree;
  s.fanout = 4;
  s.consistency = true;
  return s;
}

std::vector<uint64_t> CauchyValues(uint64_t domain, uint64_t n,
                                   uint64_t seed) {
  const ldp::CauchyDistribution dist(domain, 0.4);
  ldp::Rng rng(seed);
  std::vector<uint64_t> values(n);
  for (uint64_t& v : values) v = dist.Sample(rng);
  return values;
}

std::vector<Bytes> EncodeChunks(const ServerSpec& spec,
                                const std::vector<uint64_t>& values,
                                uint64_t chunk, uint64_t seed,
                                SpanRecorder& spans) {
  std::vector<Bytes> chunks;
  chunks.reserve((values.size() + chunk - 1) / chunk);
  const ldp::protocol::FlatHrrClient flat(spec.domain, spec.eps);
  const ldp::protocol::HaarHrrClient haar(spec.domain, spec.eps);
  const ldp::protocol::TreeHrrClient tree(spec.domain, spec.fanout, spec.eps);
  for (size_t begin = 0; begin < values.size(); begin += chunk) {
    const size_t end = std::min(values.size(), begin + chunk);
    std::span<const uint64_t> slice(values.data() + begin, end - begin);
    ldp::Rng rng(Mix(seed, begin / chunk));
    ScopedSpan span(spans, "protocol.encode");
    switch (spec.kind) {
      case ServerKind::kFlat:
        chunks.push_back(flat.EncodeUsersSerialized(slice, rng));
        break;
      case ServerKind::kHaar:
        chunks.push_back(haar.EncodeUsersSerialized(slice, rng));
        break;
      default:
        chunks.push_back(tree.EncodeUsersSerialized(slice, rng));
        break;
    }
  }
  return chunks;
}

bool AbsorbAll(ldp::service::AggregatorServer& server,
               const std::vector<Bytes>& chunks, SpanRecorder& spans,
               const char* span_name) {
  bool ok = true;
  for (const Bytes& chunk : chunks) {
    ScopedSpan span(spans, span_name);
    ok = server.AbsorbBatchSerialized(chunk) == ldp::protocol::ParseError::kOk && ok;
  }
  return ok && server.rejected_reports() == 0;
}

QuerySet MakeQuerySet(const ldp::service::AggregatorServer& reference,
                      uint64_t count, uint64_t seed, SpanRecorder& spans,
                      const char* span_name) {
  QuerySet set;
  ldp::Rng rng(seed);
  const uint64_t domain = reference.domain();
  for (uint64_t q = 0; q < count; ++q) {
    uint64_t lo = rng.UniformInt(domain);
    uint64_t hi = rng.UniformInt(domain);
    if (lo > hi) std::swap(lo, hi);
    ldp::RangeEstimate est;
    {
      ScopedSpan span(spans, span_name);
      est = reference.RangeQueryWithUncertainty(lo, hi);
    }
    ldp::service::RangeQueryResponse response;
    response.query_id = q;
    response.estimates.push_back(
        ldp::service::IntervalEstimate{est.value, est.stddev * est.stddev});
    set.ranges.emplace_back(lo, hi);
    set.expected.push_back(ldp::service::SerializeRangeQueryResponse(response));
  }
  return set;
}

std::vector<Bytes> RequestsFor(const QuerySet& set, uint64_t server_id) {
  std::vector<Bytes> out;
  out.reserve(set.ranges.size());
  for (size_t q = 0; q < set.ranges.size(); ++q) {
    ldp::service::RangeQueryRequest request;
    request.query_id = q;
    request.server_id = server_id;
    request.intervals = {{set.ranges[q].first, set.ranges[q].second}};
    out.push_back(ldp::service::SerializeRangeQueryRequest(request));
  }
  return out;
}

bool StreamSession(ldp::net::TcpClient& client, uint64_t session_id,
                   uint64_t server_id, const std::vector<Bytes>& chunks,
                   size_t begin, size_t end, uint8_t end_flags,
                   SpanRecorder& spans, uint64_t parent, uint32_t thread,
                   uint64_t* first_send_ns) {
  if (first_send_ns != nullptr) *first_send_ns = NowNs();
  if (!client.Send(ldp::service::SerializeStreamBegin({session_id, server_id}))) {
    return false;
  }
  for (size_t c = begin; c < end; ++c) {
    const Bytes message =
        ldp::service::SerializeStreamChunk(session_id, c - begin, chunks[c]);
    ScopedSpan span(spans, "net.send", parent, thread);
    if (!client.Send(message)) return false;
  }
  ldp::service::StreamEnd msg;
  msg.session_id = session_id;
  msg.chunk_count = end - begin;
  msg.flags = end_flags;
  return client.Send(ldp::service::SerializeStreamEnd(msg));
}

bool SendFinalize(ldp::net::TcpClient& client, uint64_t session_id,
                  uint64_t server_id) {
  ldp::service::StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = 0;
  end.flags = ldp::service::kStreamFlagFinalize;
  return client.Send(ldp::service::SerializeStreamBegin({session_id, server_id})) &&
         client.Send(ldp::service::SerializeStreamEnd(end));
}

std::optional<ldp::obs::StatsResponse> Scrape(ldp::net::TcpClient& client,
                                              bool include_global) {
  ldp::obs::StatsQuery query;
  query.query_id = 0x57A7;
  query.flags = include_global ? ldp::obs::kStatsFlagIncludeGlobal : 0;
  const Bytes reply = client.Call(ldp::obs::SerializeStatsQuery(query));
  ldp::obs::StatsResponse response;
  if (ldp::obs::ParseStatsResponse(reply, &response) !=
          ldp::protocol::ParseError::kOk ||
      response.status != ldp::obs::StatsStatus::kOk ||
      response.query_id != query.query_id) {
    return std::nullopt;
  }
  return response;
}

ldp::obs::HistogramSnapshot HistogramDelta(
    const ldp::obs::HistogramSnapshot& after,
    const ldp::obs::HistogramSnapshot& before) {
  ldp::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < ldp::obs::kHistogramBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  d.min = 0;
  d.max = after.max;
  return d;
}

ldp::obs::HistogramSnapshot ScrapedHistogram(
    const ldp::obs::StatsResponse& scrape, const std::string& name) {
  const ldp::obs::HistogramValue* h = scrape.metrics.FindHistogram(name);
  return h == nullptr ? ldp::obs::HistogramSnapshot{} : h->histogram;
}

Bytes CallTimed(ldp::net::TcpClient& client, const Bytes& request,
                uint64_t* send_ns, uint64_t* recv_ns) {
  *send_ns = NowNs();
  Bytes reply = client.Call(request);
  *recv_ns = NowNs();
  return reply;
}

std::optional<ldp::service::QueryStatus> ResponseStatus(const Bytes& reply) {
  ldp::service::RangeQueryResponse response;
  if (ldp::service::ParseRangeQueryResponse(reply, &response) !=
      ldp::protocol::ParseError::kOk) {
    return std::nullopt;
  }
  return response.status;
}

Bytes CallUntilFinalized(ldp::net::TcpClient& client, const Bytes& request,
                         uint64_t deadline_ns, uint64_t* send_ns,
                         uint64_t* recv_ns, uint64_t* retries) {
  while (true) {
    Bytes reply = CallTimed(client, request, send_ns, recv_ns);
    if (ResponseStatus(reply) != ldp::service::QueryStatus::kNotFinalized ||
        *recv_ns >= deadline_ns) {
      return reply;
    }
    if (retries != nullptr) ++*retries;
  }
}

}  // namespace ldpbench
