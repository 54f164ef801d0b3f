// serve_mixed: reads beside writes on one service.
//
// Three open-loop streams run at once against pre-created servers:
//   - single-interval range queries at a fixed rate on a pre-finalized
//     HHc4 (HRR, consistency on) tree server, each timed from its due
//     time;
//   - Flat-HRR ingest at a fixed rate, one fresh server per epoch, each
//     epoch ending in finalize -> first kOk (ttq) and probes;
//   - groups of four tree snapshots (kStateMerge, finalize flag) landing
//     at fixed intervals, each group in a fresh server.
// Every answer is checked byte-for-byte against an in-process reference.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/snapshot_push.h"
#include "workloads.h"

namespace ldpbench {
namespace {

using ldp::service::MakeAggregatorServer;

struct Inputs {
  std::vector<Bytes> tree_chunks;  // the pre-finalized tree's population
  std::vector<Bytes> flat_chunks;  // one epoch of flat ingest
  std::vector<Bytes> snapshots;    // one fan-in group
  QuerySet tree_queries;
  QuerySet flat_queries;
  QuerySet union_queries;
};

Inputs BuildInputs(const WorkloadConfig& c, uint64_t seed,
                   const std::string& corrupt, SpanRecorder& spans,
                   Outcome& out) {
  Inputs in;
  bool ok = true;
  const bool bad_wire = corrupt == "wire_probe";

  const auto tree_spec = TreeSpec(c);
  in.tree_chunks = EncodeChunks(
      tree_spec, CauchyValues(c.domain, c.tree_users, Mix(seed, 11)), c.chunk,
      Mix(seed, 12), spans);
  auto tree_ref = MakeAggregatorServer(tree_spec);
  ok = AbsorbAll(*tree_ref, in.tree_chunks, spans, "protocol.absorb_ref") && ok;
  if (bad_wire) ok = AbsorbAll(*tree_ref, {in.tree_chunks[0]}, spans) && ok;
  {
    ScopedSpan span(spans, "protocol.finalize_ref");
    tree_ref->Finalize();
  }
  in.tree_queries =
      MakeQuerySet(*tree_ref, c.query_set, Mix(seed, 13), spans);

  const auto flat_spec = FlatSpec(c);
  const uint64_t epoch_users = static_cast<uint64_t>(
      std::llround(c.ingest_rate * c.epoch_s / c.chunk)) * c.chunk;
  in.flat_chunks = EncodeChunks(
      flat_spec, CauchyValues(c.domain, epoch_users, Mix(seed, 14)), c.chunk,
      Mix(seed, 15), spans);
  auto flat_ref = MakeAggregatorServer(flat_spec);
  ok = AbsorbAll(*flat_ref, in.flat_chunks, spans) && ok;
  if (bad_wire) ok = AbsorbAll(*flat_ref, {in.flat_chunks[0]}, spans) && ok;
  {
    ScopedSpan span(spans, "protocol.finalize");
    flat_ref->Finalize();
  }
  in.flat_queries = MakeQuerySet(*flat_ref, c.probes, Mix(seed, 16), spans,
                                 "protocol.query_ref");

  // Fan-in shards: separate populations, each absorbed and snapshotted;
  // the union reference restores and merges the snapshots.
  auto union_ref = MakeAggregatorServer(tree_spec);
  for (uint64_t s = 0; s < c.fanin_shards; ++s) {
    auto shard = MakeAggregatorServer(tree_spec);
    const auto chunks = EncodeChunks(
        tree_spec, CauchyValues(c.domain, c.shard_users, Mix(seed, 17, s)),
        c.chunk, Mix(seed, 18, s), spans);
    ok = AbsorbAll(*shard, chunks, spans, "protocol.absorb_ref") && ok;
    {
      ScopedSpan span(spans, "protocol.serialize_state");
      in.snapshots.push_back(shard->SerializeState());
    }
    ScopedSpan span(spans, "protocol.merge_state");
    ok = union_ref->MergeSerializedState(in.snapshots.back()) ==
             ldp::service::MergeStatus::kOk && ok;
  }
  if (corrupt == "fanin_probe") {
    ok = union_ref->MergeSerializedState(in.snapshots[0]) ==
             ldp::service::MergeStatus::kOk && ok;
  }
  union_ref->Finalize();
  in.union_queries = MakeQuerySet(*union_ref, c.probes / 4, Mix(seed, 19),
                                  spans, "protocol.query_ref");
  out.Gate("reference_build", ok, ok ? "references absorbed every input"
                                     : "a reference rejected input");
  return in;
}

bool SameInputs(const Inputs& a, const Inputs& b) {
  return a.tree_chunks == b.tree_chunks && a.flat_chunks == b.flat_chunks &&
         a.snapshots == b.snapshots &&
         a.tree_queries.expected == b.tree_queries.expected &&
         a.flat_queries.expected == b.flat_queries.expected &&
         a.union_queries.expected == b.union_queries.expected;
}

// Thread-safe failure sink for the concurrent streams.
struct Failures {
  std::mutex mu;
  Outcome* out;
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu);
    out->Attempt(n);
  }
  void Fail(const std::string& gate, const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu);
    out->Fail();
    out->Gate(gate, false, detail);
  }
};

struct Epoch {
  double ttq_ms = 0, first_rtt_ms = 0, wall_s = 0, window_ns = 0;
  uint64_t reports = 0;
};

}  // namespace

int RunServeMixed(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const bool trace = args.U64("trace", 0) != 0;
  const WorkloadConfig c =
      MakeConfig("serve_mixed", args.F64("seconds", 10.0), args.Has("smoke"));
  const std::string corrupt = args.Str("corrupt", "");
  const auto port = static_cast<uint16_t>(args.U64("port", 0));

  RunResult result;
  result.workload = c.workload;
  result.seed = seed;
  result.trace = trace;
  AddHostInfo(result);
  Outcome& out = result.outcome;
  SpanRecorder spans(trace);

  // ---- Set-up, kSetupReps times; the median is reported.
  std::vector<double> setup_s;
  Inputs in;
  bool deterministic = true;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNs();
    Inputs built = BuildInputs(c, seed, corrupt, spans, out);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (rep == 0) {
      in = std::move(built);
    } else {
      deterministic = deterministic && SameInputs(in, built);
    }
  }
  out.Gate("setup_determinism", deterministic,
           "every input build from one seed is byte-identical");

  ldp::net::TcpClient qconn, iconn, fconn;
  if (!qconn.Connect("127.0.0.1", port) || !iconn.Connect("127.0.0.1", port) ||
      !fconn.Connect("127.0.0.1", port)) {
    std::fprintf(stderr, "serve_mixed: connect failed\n");
    return 1;
  }
  for (ldp::net::TcpClient* client : {&qconn, &iconn, &fconn}) {
    client->set_receive_timeout_ms(static_cast<int>(kDeadlineNs / 1000000));
  }

  // One-off set-up on the wire: stream the tree population and finalize.
  const uint64_t t_wire = NowNs();
  // Session ids: 1 for the tree; 1000 * (epoch + 1) + k for flat epochs.
  StreamSession(iconn, 1, kMixedTreeServer, in.tree_chunks, 0,
                in.tree_chunks.size(), ldp::service::kStreamFlagFinalize, spans,
                0, 0);
  const std::vector<Bytes> tree_requests =
      RequestsFor(in.tree_queries, kMixedTreeServer);
  {
    uint64_t send_ns = 0, recv_ns = 0;
    CallUntilFinalized(qconn, tree_requests[0], t_wire + kDeadlineNs, &send_ns,
                       &recv_ns);
  }
  const double wire_setup_s = (NowNs() - t_wire) / 1e9;

  Failures failures{{}, &out};
  const uint64_t lead_ns = 20'000'000;
  const uint64_t t0 = NowNs() + lead_ns;
  const uint64_t t_end = t0 + static_cast<uint64_t>(c.seconds * 1e9);

  // Open-loop queries on the pre-finalized tree: one thread sends each
  // query at its due time without waiting for earlier answers, another
  // reads the answers, which come back in order on the connection, so a
  // stalled answer never delays a later send. (Send only reads the
  // client's descriptor; the two threads share no mutable client state.)
  const uint64_t period = static_cast<uint64_t>(1e9 / c.query_rate);
  const uint64_t queries = (t_end - t0 + period - 1) / period;
  std::vector<std::atomic<uint64_t>> sent_ns(queries);
  std::vector<double> latency, late, rtt;
  std::thread query_sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);
    for (uint64_t k = 0; k < queries; ++k) {
      const uint64_t due = t0 + k * period;
      WaitUntil(due);
      const uint64_t now = NowNs();
      sent_ns[k].store(now, std::memory_order_release);
      late.push_back((now - due) / 1e3);
      if (!qconn.Send(tree_requests[k % tree_requests.size()])) {
        failures.Fail("transport", "query send failed");
        return;
      }
    }
  });
  std::thread query_receiver([&] {
    for (uint64_t k = 0; k < queries; ++k) {
      Bytes reply;
      const bool received = qconn.ReceiveMessage(&reply);
      const uint64_t now = NowNs();
      failures.Attempt();
      if (!received) {
        failures.Fail("wire_probe",
                      "tree query " + std::to_string(k) + " got no answer");
        return;
      }
      latency.push_back((now - (t0 + k * period)) / 1e3);
      rtt.push_back((now - sent_ns[k].load(std::memory_order_acquire)) / 1e3);
      if (reply != in.tree_queries.expected[k % tree_requests.size()]) {
        failures.Fail("wire_probe", "tree query " + std::to_string(k) +
                                        " differs from the reference");
      }
    }
  });

  // Fixed-rate flat ingest, one fresh server per epoch.
  std::vector<Epoch> epochs;
  const uint64_t expected_reports =
      in.flat_chunks.size() * c.chunk + (corrupt == "report_accounting" ? 1 : 0);
  std::thread ingest_thread([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);
    const double chunk_period = 1e9 * c.chunk / c.ingest_rate;
    const size_t session_chunks = 100;
    const size_t nchunks = in.flat_chunks.size();
    for (uint64_t e = 0; e < c.epochs; ++e) {
      const uint64_t server = MixedFlatServer(e);
      const uint64_t epoch_due =
          t0 + static_cast<uint64_t>(e * c.epoch_s * 1e9);
      const uint64_t epoch_span = spans.NewId();
      Epoch epoch;
      uint64_t t_first = 0;
      // Every chunk is paced to its own due time; sessions group
      // session_chunks consecutive chunks.
      for (size_t j = 0; j < nchunks; ++j) {
        const uint64_t session = 1000 * (e + 1) + j / session_chunks;
        const size_t seq = j % session_chunks;
        WaitUntil(epoch_due + static_cast<uint64_t>(j * chunk_period));
        if (t_first == 0) t_first = NowNs();
        bool ok = seq != 0 || iconn.Send(ldp::service::SerializeStreamBegin(
                                  {session, server}));
        {
          ScopedSpan span(spans, "net.send", epoch_span, 2);
          ok = ok && iconn.Send(ldp::service::SerializeStreamChunk(
                         session, seq, in.flat_chunks[j]));
        }
        if (seq + 1 == session_chunks || j + 1 == nchunks) {
          ldp::service::StreamEnd end;
          end.session_id = session;
          end.chunk_count = seq + 1;
          ok = ok && iconn.Send(ldp::service::SerializeStreamEnd(end));
        }
        if (!ok) {
          failures.Fail("transport", "flat ingest send failed");
          return;
        }
      }
      const uint64_t t_last = NowNs();
      failures.Attempt(nchunks * c.chunk);
      // One connection carries the epoch, so the finalize session is
      // routed after every chunk and the strand absorbs them all first.
      SendFinalize(iconn, 1000 * (e + 1) + 999, server);
      const std::vector<Bytes> probes = RequestsFor(in.flat_queries, server);
      uint64_t t_q = 0;
      for (size_t p = 0; p < probes.size(); ++p) {
        Bytes reply;
        uint64_t send_ns = 0, recv_ns = 0;
        reply = p == 0 ? CallUntilFinalized(iconn, probes[p], t_last + kDeadlineNs,
                                            &send_ns, &recv_ns)
                       : CallTimed(iconn, probes[p], &send_ns, &recv_ns);
        if (p == 0) {
          t_q = recv_ns;
          epoch.first_rtt_ms = NsToMs(recv_ns - send_ns);
        }
        failures.Attempt();
        if (reply != in.flat_queries.expected[p]) {
          failures.Fail("wire_probe", "flat epoch " + std::to_string(e) +
                                          " probe " + std::to_string(p) +
                                          " differs from the reference");
        }
      }
      epoch.reports = nchunks * c.chunk;
      epoch.window_ns = static_cast<double>(t_q - t_first);
      epoch.ttq_ms = NsToMs(t_q - t_last);
      epoch.wall_s = (NowNs() - t_first) / 1e9;
      spans.Record("epoch", t_first, NowNs(), 0, 2, epoch_span);
      epochs.push_back(epoch);
    }
  });

  // Fan-in groups at fixed intervals, on this thread.
  std::vector<double> fanin_ms;
  for (uint64_t g = 0; g < c.groups; ++g) {
    const uint64_t due =
        t0 + static_cast<uint64_t>((g + 0.25) * c.group_interval_s * 1e9);
    WaitUntil(due);
    const uint64_t server = MixedGroupServer(c, g);
    const uint64_t t_push = NowNs();
    for (uint64_t s = 0; s < c.fanin_shards; ++s) {
      ldp::net::SnapshotPushOptions opt;
      opt.jitter_seed = Mix(seed, g, s);
      const auto push = ldp::net::PushStateSnapshot(
          fconn, g + 1, server, s, c.fanin_shards,
          ldp::service::kMergeFlagFinalize, in.snapshots[s], opt);
      failures.Attempt();
      if (!push.ok) {
        failures.Fail("merge_acks",
                      "group " + std::to_string(g) + " push " +
                          ldp::service::MergeStatusName(push.status));
      }
    }
    fanin_ms.push_back(NsToMs(NowNs() - t_push));
    spans.Record("fanin_group", t_push, NowNs(), 0, 3);
    const std::vector<Bytes> probes = RequestsFor(in.union_queries, server);
    for (size_t p = 0; p < probes.size(); ++p) {
      failures.Attempt();
      if (fconn.Call(probes[p]) != in.union_queries.expected[p]) {
        failures.Fail("fanin_probe", "group " + std::to_string(g) +
                                         " answer differs from the union "
                                         "reference");
      }
    }
  }
  query_sender.join();
  query_receiver.join();
  ingest_thread.join();
  const double run_s = (NowNs() - t0) / 1e9;

  // ---- Final scrape: accounting and service-side stages.
  const auto scrape = Scrape(qconn, true);
  if (!scrape) out.Gate("stats_scrape", false, "final kStatsQuery failed");
  std::vector<double> svc_finalize_ms, drain_ms;
  double absorb_busy_ns = 0, window_ns = 0, reports = 0;
  for (uint64_t e = 0; e < epochs.size() && scrape; ++e) {
    const std::string prefix = "server" + std::to_string(MixedFlatServer(e)) + ".";
    const uint64_t acc = scrape->metrics.CounterOr(prefix + "accepted");
    const uint64_t rej = scrape->metrics.CounterOr(prefix + "rejected");
    if (acc != expected_reports || rej != 0) {
      out.Fail(std::max<uint64_t>(1, rej));
      out.Gate("report_accounting", false,
               prefix + " accepted " + std::to_string(acc) + ", rejected " +
                   std::to_string(rej) + " of " +
                   std::to_string(expected_reports));
    }
    const double fin_ms =
        ScrapedHistogram(*scrape, prefix + "finalize_ns").sum / 1e6;
    svc_finalize_ms.push_back(fin_ms);
    // The epoch's drain is what time-to-queryable leaves once the server's
    // finalize and the first answer's round trip are taken out.
    drain_ms.push_back(std::max(
        0.0, epochs[e].ttq_ms - fin_ms - epochs[e].first_rtt_ms));
    absorb_busy_ns += ScrapedHistogram(*scrape, prefix + "absorb_batch_ns").sum;
    window_ns += epochs[e].window_ns;
    reports += epochs[e].reports;
  }
  if (scrape && scrape->metrics.CounterOr("service.merges_completed") != c.groups) {
    out.Gate("merge_acks", false, "merges_completed != groups");
  }
  out.Gate("report_accounting", epochs.size() == c.epochs,
           std::to_string(epochs.size()) + " flat epochs accounted");
  out.Gate("wire_probe", true, "every tree and flat answer byte-identical");
  out.Gate("fanin_probe", true, "every fan-in answer byte-identical");
  out.Gate("merge_acks", true, "every snapshot push acked ok");

  auto collect = [&](double Epoch::*field) {
    std::vector<double> v;
    for (const Epoch& e : epochs) v.push_back(e.*field);
    return v;
  };
  const uint64_t ne = epochs.size();
  result.e2e["ingest_rps"] = {window_ns > 0 ? reports / (window_ns / 1e9) : 0.0,
                              "1/s", ne};
  result.e2e["ttq_ms"] = {Median(collect(&Epoch::ttq_ms)), "ms", ne};
  // Quantiles per window of one fan-in interval (1250 queries, twelve
  // beyond the p99, one merge stall), median over windows: a stretch of
  // the run disturbed by the host moves them little.
  const size_t window =
      static_cast<size_t>(c.query_rate * c.group_interval_s);
  result.e2e["query_p50_us"] = {WindowedQuantile(latency, window, 0.5), "us",
                                latency.size()};
  result.e2e["query_p99_us"] = {WindowedQuantile(latency, window, 0.99), "us",
                                latency.size()};
  result.e2e["fanin_ms"] = {Median(fanin_ms), "ms", fanin_ms.size()};
  result.e2e["sim_trial_s"] = {Median(collect(&Epoch::wall_s)), "s", ne};
  result.e2e["setup_s"] = {Median(setup_s) + wire_setup_s, "s", setup_s.size()};
  result.info["query_rate"] = std::to_string(c.query_rate);
  result.info["ingest_rate"] = std::to_string(c.ingest_rate);
  result.info["group_interval_s"] = std::to_string(c.group_interval_s);
  result.info["run_s"] = std::to_string(run_s);
  result.info["gen_late_p99_us"] = std::to_string(Quantile(late, 0.99));
  result.info["gen_late_p50_us"] = std::to_string(Quantile(late, 0.5));
  result.info["rtt_p50_us"] = std::to_string(Quantile(rtt, 0.5));
  result.info["rtt_p99_us"] = std::to_string(Quantile(rtt, 0.99));

  if (trace) {
    uint64_t count = 0;
    const uint64_t encode_ns = spans.TotalNs("protocol.encode", &count);
    const double encoded_reports =
        double{kSetupReps} * (c.tree_users + in.flat_chunks.size() * c.chunk +
               c.fanin_shards * c.shard_users);
    result.layer["protocol.encode_ns_per_report"] = {encode_ns / encoded_reports,
                                                     "ns", count};
    const uint64_t absorb_ns = spans.TotalNs("protocol.absorb", &count);
    result.layer["protocol.absorb_ns_per_report"] = {
        count ? static_cast<double>(absorb_ns) / (count * c.chunk) : 0.0, "ns",
        count};
    auto median_ms = [&](const char* name) {
      const auto d = spans.Durations(name);
      return Metric{Median(d) / 1e6, "ms", d.size()};
    };
    result.layer["protocol.finalize_ms"] = median_ms("protocol.finalize");
    const auto q = spans.Durations("protocol.query");
    result.layer["protocol.query_ns"] = {Median(q), "ns", q.size()};
    double state_bytes = 0;
    for (const Bytes& s : in.snapshots) state_bytes += s.size();
    result.layer["protocol.state_bytes"] = {state_bytes / in.snapshots.size(),
                                            "bytes", in.snapshots.size()};
    result.layer["protocol.serialize_state_ms"] =
        median_ms("protocol.serialize_state");
    result.layer["protocol.merge_state_ms"] = median_ms("protocol.merge_state");
    result.layer["service.drain_ms"] = {Median(drain_ms), "ms", ne};
    result.layer["service.finalize_ms"] = {Median(svc_finalize_ms), "ms", ne};
    result.layer["service.absorb_busy_share"] = {
        window_ns > 0 ? absorb_busy_ns / window_ns : 0.0, "ratio", ne};
    uint64_t sends = 0;
    const uint64_t send_total = spans.TotalNs("net.send", &sends);
    result.layer["net.send_blocked_s"] = {ne ? send_total / 1e9 / ne : 0.0, "s",
                                          sends};
    result.layer["net.gen_late_p99_ms"] = {Quantile(late, 0.99) / 1e3, "ms",
                                           late.size()};
    if (scrape) {
      const auto qns = ScrapedHistogram(*scrape, "service.query_ns");
      result.layer["service.query_p50_us"] = {qns.Quantile(0.5) / 1e3, "us",
                                              qns.count};
      result.layer["net.query_overhead_us"] = {
          Quantile(rtt, 0.5) - qns.Quantile(0.5) / 1e3, "us", rtt.size()};
      const auto qwait = ScrapedHistogram(*scrape, "service.queue_wait_ns");
      result.layer["service.queue_wait_p50_us"] = {qwait.Quantile(0.5) / 1e3,
                                                   "us", qwait.count};
      result.layer["service.queue_wait_p99_us"] = {qwait.Quantile(0.99) / 1e3,
                                                   "us", qwait.count};
      auto counter = [&](const char* name) {
        return Metric{static_cast<double>(scrape->metrics.CounterOr(name)),
                      "count", 1};
      };
      result.layer["service.backpressure_waits"] =
          counter("service.backpressure_waits");
      result.layer["service.socket_pauses"] = counter("service.socket_pauses");
      result.layer["service.merge_would_block"] =
          counter("service.merge_would_block");
      result.layer["net.read_pauses"] = counter("net.read_pauses");
      const auto mabs = ScrapedHistogram(*scrape, "merge.absorb_ns");
      const auto mfan = ScrapedHistogram(*scrape, "merge.fan_in_ns");
      result.layer["service.merge_absorb_ms"] = {mabs.Quantile(0.5) / 1e6, "ms",
                                                 mabs.count};
      result.layer["service.merge_fan_in_ms"] = {mfan.Quantile(0.5) / 1e6, "ms",
                                                 mfan.count};
    }
    const std::string span_path = args.Str("spans", "");
    if (!span_path.empty()) spans.WriteChromeTrace(span_path);
  }
  qconn.Close();
  iconn.Close();
  fconn.Close();
  if (!WriteResult(result, args.Str("out", "result.json"))) return 1;
  return out.correct() ? 0 : 3;
}

}  // namespace ldpbench
