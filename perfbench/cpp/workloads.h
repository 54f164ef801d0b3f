// Workload definitions shared by the service process and the load
// generator: sizes, rates and the hosted-server layout (both processes
// derive server ids from it), plus the input builders and wire helpers
// the generators use.

#ifndef LDPBENCH_WORKLOADS_H_
#define LDPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/tcp_client.h"
#include "obs/stats_wire.h"
#include "service/aggregator_server.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace ldpbench {

using Bytes = std::vector<uint8_t>;

/// Sizes and rates of one workload run. Everything is a function of the
/// workload name, --seconds and --smoke, never of the seed, so both
/// processes agree on it and peak memory does not depend on the seed.
struct WorkloadConfig {
  std::string workload;
  double seconds = 10.0;

  // Paper defaults for the served kinds: D = 2^16, e^eps = 3.
  uint64_t domain = uint64_t{1} << 16;
  double eps = 0.0;  // set to ln 3
  uint64_t chunk = 2000;  // reports per chunk
  unsigned workers = 2;   // service worker threads

  // ingest_wire
  uint64_t users = 0;  // population streamed per round
  double round_period_s = 0.0;  // rounds start at this fixed cadence
  uint64_t rounds = 0;
  uint64_t fanin_every = 0;  // one fan-in group per this many rounds
  uint64_t probes = 0;  // sequential wire probes per round (and per fan-in)
  uint64_t burst = 0;   // queries sent back to back per round

  // serve_mixed
  uint64_t tree_users = 0;        // pre-finalized HHc4 population
  uint64_t shard_users = 0;       // users per fan-in shard snapshot
  uint64_t fanin_shards = 4;
  double query_rate = 0.0;        // open-loop queries per second
  double ingest_rate = 0.0;       // open-loop flat reports per second
  double epoch_s = 0.0;           // one flat server per epoch
  double group_interval_s = 0.0;  // one fan-in group per interval
  uint64_t epochs = 0;
  uint64_t groups = 0;
  uint64_t query_set = 0;         // distinct precomputed queries

  /// Hosted servers in id order.
  std::vector<ldp::service::ServerSpec> layout;
};

WorkloadConfig MakeConfig(const std::string& workload, double seconds,
                          bool smoke);

/// Server ids of each workload's layout.
inline uint64_t IngestRoundServer(uint64_t round) { return round; }
inline uint64_t IngestFanInServer(const WorkloadConfig& c, uint64_t round) {
  return c.rounds + round / c.fanin_every;
}
inline constexpr uint64_t kMixedTreeServer = 0;
inline uint64_t MixedFlatServer(uint64_t epoch) { return 1 + epoch; }
inline uint64_t MixedGroupServer(const WorkloadConfig& c, uint64_t group) {
  return 1 + c.epochs + group;
}

ldp::service::ServerSpec HaarSpec(const WorkloadConfig& c);
ldp::service::ServerSpec FlatSpec(const WorkloadConfig& c);
ldp::service::ServerSpec TreeSpec(const WorkloadConfig& c);

/// `n` values from the paper's truncated Cauchy (centre 0.4 D, scale
/// D/10), drawn from the stream `seed`.
std::vector<uint64_t> CauchyValues(uint64_t domain, uint64_t n, uint64_t seed);

/// Encodes `values` with the client of `spec.kind` into framed batch
/// messages of `chunk` reports each; chunk i draws from Mix(seed, i).
/// Each EncodeUsersSerialized call is recorded as a "protocol.encode"
/// span.
std::vector<Bytes> EncodeChunks(const ldp::service::ServerSpec& spec,
                                const std::vector<uint64_t>& values,
                                uint64_t chunk, uint64_t seed,
                                SpanRecorder& spans);

/// Absorbs `chunks` into an in-process server; each AbsorbBatchSerialized
/// call is recorded as a `span_name` span.
/// False when any chunk failed to parse or any report was rejected.
bool AbsorbAll(ldp::service::AggregatorServer& server,
               const std::vector<Bytes>& chunks, SpanRecorder& spans,
               const char* span_name = "protocol.absorb");

/// A fixed set of single-interval range queries and the byte-exact
/// response a correct server returns to each, computed from `reference`
/// (which must be finalized). Query i carries query_id i.
struct QuerySet {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  std::vector<Bytes> expected;
};

QuerySet MakeQuerySet(const ldp::service::AggregatorServer& reference,
                      uint64_t count, uint64_t seed, SpanRecorder& spans,
                      const char* span_name = "protocol.query");

/// The serialized requests of `set`, addressed to `server_id`.
std::vector<Bytes> RequestsFor(const QuerySet& set, uint64_t server_id);

/// Streams chunks[begin, end) as one complete session; each chunk Send
/// is a "net.send" span under `parent` (thread tag `thread`).
/// `first_send_ns` receives the time the first byte was handed to the
/// socket. False on socket error.
bool StreamSession(ldp::net::TcpClient& client, uint64_t session_id,
                   uint64_t server_id, const std::vector<Bytes>& chunks,
                   size_t begin, size_t end, uint8_t end_flags,
                   SpanRecorder& spans, uint64_t parent, uint32_t thread,
                   uint64_t* first_send_ns = nullptr);

/// Sends an empty session whose kStreamEnd carries the finalize flag.
bool SendFinalize(ldp::net::TcpClient& client, uint64_t session_id,
                  uint64_t server_id);

/// One kStatsQuery round trip; nullopt on transport or parse failure.
std::optional<ldp::obs::StatsResponse> Scrape(ldp::net::TcpClient& client,
                                              bool include_global);

/// Histogram difference `after - before` of the same recorder (counts,
/// sums and buckets; min/max widened so quantiles interpolate freely).
ldp::obs::HistogramSnapshot HistogramDelta(
    const ldp::obs::HistogramSnapshot& after,
    const ldp::obs::HistogramSnapshot& before);

/// Named histogram of a scrape, or an empty one.
ldp::obs::HistogramSnapshot ScrapedHistogram(
    const ldp::obs::StatsResponse& scrape, const std::string& name);

/// Sends query `request` and waits for its response. Returns the reply
/// bytes (empty on transport failure); `send_ns`/`recv_ns` receive the
/// times around the call.
Bytes CallTimed(ldp::net::TcpClient& client, const Bytes& request,
                uint64_t* send_ns, uint64_t* recv_ns);

/// Status byte of a serialized range-query response, or nullopt when it
/// does not parse.
std::optional<ldp::service::QueryStatus> ResponseStatus(const Bytes& reply);

/// Repeats `request` while the server answers kNotFinalized (not a
/// failure: finalize is still running), until `deadline_ns`. Returns the
/// last reply; `send_ns`/`recv_ns` time the last call and `retries`
/// (nullable) counts the kNotFinalized answers.
Bytes CallUntilFinalized(ldp::net::TcpClient& client, const Bytes& request,
                         uint64_t deadline_ns, uint64_t* send_ns,
                         uint64_t* recv_ns, uint64_t* retries = nullptr);

/// The two served generators and the in-process simulation.
int RunIngestWire(const Args& args);
int RunServeMixed(const Args& args);
int RunSimulate(const Args& args);
/// The service process of the served workloads.
int RunServe(const Args& args);

}  // namespace ldpbench

#endif  // LDPBENCH_WORKLOADS_H_
