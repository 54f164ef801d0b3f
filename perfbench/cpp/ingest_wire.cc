// ingest_wire: closed-loop wire ingest into one HaarHRR server per round.
//
// Set-up encodes a distinct population once (paper inputs: truncated
// Cauchy, D = 2^16, e^eps = 3, 2000-report chunks) and builds the
// in-process reference every wire answer is checked against. Rounds start
// on a fixed cadence. Each streams the population over two connections as
// fresh sessions into its own pre-created server, waits until every report
// is accounted as accepted or rejected (polled over the stats plane),
// finalizes, sends sequential probes and then a burst of queries, and
// every few rounds lands the population's two shard snapshots as one
// fan-in group in another fresh server.
//
// Spans per round: first chunk sent -> every report absorbed (ingest_rps);
// last chunk sent -> first kOk answer after finalize (ttq_ms), which the
// stage check splits into drain + server finalize + first query RTT.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/snapshot_push.h"
#include "workloads.h"

namespace ldpbench {
namespace {

using ldp::service::MakeAggregatorServer;

struct Inputs {
  std::vector<Bytes> chunks;
  Bytes snapshots[2];      // one per connection share
  QuerySet queries;        // against the chunk-absorbing reference
  QuerySet fanin_queries;  // against the union of the two snapshots
};

// Builds every input of the workload from the seed. `corrupt` names a
// gate whose reference is deliberately broken (smoke test only).
Inputs BuildInputs(const WorkloadConfig& c, uint64_t seed,
                   const std::string& corrupt, SpanRecorder& spans,
                   Outcome& out) {
  Inputs in;
  const auto spec = HaarSpec(c);
  const std::vector<uint64_t> values = CauchyValues(c.domain, c.users, Mix(seed, 1));
  in.chunks = EncodeChunks(spec, values, c.chunk, Mix(seed, 2), spans);

  auto reference = MakeAggregatorServer(spec);
  bool ok = AbsorbAll(*reference, in.chunks, spans);
  if (corrupt == "wire_probe") {
    ok = AbsorbAll(*reference, {in.chunks[0]}, spans) && ok;
  }
  {
    ScopedSpan span(spans, "protocol.finalize");
    reference->Finalize();
  }
  in.queries = MakeQuerySet(*reference, c.burst, Mix(seed, 3), spans);

  // The two connection shares, absorbed and snapshotted separately.
  const size_t half = (in.chunks.size() + 1) / 2;
  auto fanin_reference = MakeAggregatorServer(spec);
  for (int s = 0; s < 2; ++s) {
    auto shard = MakeAggregatorServer(spec);
    const std::vector<Bytes> part(
        in.chunks.begin() + s * half,
        in.chunks.begin() + std::min(in.chunks.size(), (s + 1) * half));
    ok = AbsorbAll(*shard, part, spans, "protocol.absorb_shard") && ok;
    {
      ScopedSpan span(spans, "protocol.serialize_state");
      in.snapshots[s] = shard->SerializeState();
    }
    ScopedSpan span(spans, "protocol.merge_state");
    ok = fanin_reference->MergeSerializedState(in.snapshots[s]) ==
             ldp::service::MergeStatus::kOk && ok;
  }
  if (corrupt == "fanin_probe") {
    ok = fanin_reference->MergeSerializedState(in.snapshots[0]) ==
             ldp::service::MergeStatus::kOk && ok;
  }
  fanin_reference->Finalize();
  in.fanin_queries =
      MakeQuerySet(*fanin_reference, c.probes / 4, Mix(seed, 4), spans,
                   "protocol.query_ref");
  out.Gate("reference_build", ok, ok ? "references absorbed every chunk"
                                     : "a reference rejected input");
  return in;
}

bool SameInputs(const Inputs& a, const Inputs& b) {
  return a.chunks == b.chunks && a.snapshots[0] == b.snapshots[0] &&
         a.snapshots[1] == b.snapshots[1] &&
         a.queries.expected == b.queries.expected &&
         a.fanin_queries.expected == b.fanin_queries.expected;
}

struct Round {
  double ingest_rps = 0.0;
  double ttq_ms = 0.0;
  double drain_ms = 0.0;
  double first_rtt_ms = 0.0;
  double fanin_ms = 0.0;
  double wall_s = 0.0;
  double ingest_window_ns = 0.0;
  uint64_t server = 0;
};

}  // namespace

int RunIngestWire(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const bool trace = args.U64("trace", 0) != 0;
  const WorkloadConfig c =
      MakeConfig("ingest_wire", args.F64("seconds", 10.0), args.Has("smoke"));
  const std::string corrupt = args.Str("corrupt", "");
  const auto port = static_cast<uint16_t>(args.U64("port", 0));

  RunResult result;
  result.workload = c.workload;
  result.seed = seed;
  result.trace = trace;
  AddHostInfo(result);
  Outcome& out = result.outcome;
  SpanRecorder spans(trace);

  // ---- Set-up: build the inputs kSetupReps times, keep the first, report the
  // median, and require the rebuilds to be byte-identical.
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

  ldp::net::TcpClient senders[2];
  ldp::net::TcpClient control;
  for (auto& client : senders) {
    if (!client.Connect("127.0.0.1", port)) {
      std::fprintf(stderr, "ingest_wire: connect failed\n");
      return 1;
    }
  }
  if (!control.Connect("127.0.0.1", port)) return 1;
  control.set_receive_timeout_ms(static_cast<int>(kDeadlineNs / 1000000));

  const size_t nchunks = in.chunks.size();
  const size_t half = (nchunks + 1) / 2;
  const uint64_t expected_reports =
      c.users + (corrupt == "report_accounting" ? 1 : 0);
  uint64_t next_session = 1;
  std::vector<Round> rounds;
  std::vector<double> probe_rtt_us, burst_us;
  ldp::obs::HistogramSnapshot probe_query_ns;  // server side, probes only
  uint64_t not_finalized_retries = 0, polls = 0;
  const uint64_t run_start = NowNs();

  for (uint64_t r = 0; r < c.rounds; ++r) {
    // Closed loop inside a round; rounds start on a fixed cadence (late
    // rounds start at once).
    WaitUntil(run_start + static_cast<uint64_t>(r * c.round_period_s * 1e9));
    Round round;
    round.server = IngestRoundServer(r);
    const std::vector<Bytes> probes = RequestsFor(in.queries, round.server);
    const bool fanin_round = r % c.fanin_every == 0;
    const uint64_t fanin_server = IngestFanInServer(c, r);
    const std::vector<Bytes> fanin_probes =
        RequestsFor(in.fanin_queries, fanin_server);

    // Stream: one fresh session per connection share.
    uint64_t first_send[2] = {0, 0}, done[2] = {0, 0};
    bool sent_ok[2] = {false, false};
    const uint64_t round_span_start = NowNs();
    const uint64_t round_span = spans.NewId();
    {
      std::thread threads[2];
      for (int s = 0; s < 2; ++s) {
        threads[s] = std::thread([&, s] {
          sent_ok[s] = StreamSession(senders[s], next_session + s, round.server,
                                     in.chunks, s * half,
                                     std::min(nchunks, (s + 1) * half), 0,
                                     spans, round_span, s + 1, &first_send[s]);
          done[s] = NowNs();
        });
      }
      for (auto& t : threads) t.join();
    }
    next_session += 2;
    out.Attempt(c.users);
    if (!sent_ok[0] || !sent_ok[1]) {
      out.Fail(c.users);
      out.Gate("transport", false, "ingest send failed");
      break;
    }
    const uint64_t t_first = std::min(first_send[0], first_send[1]);
    const uint64_t t_last = std::max(done[0], done[1]);

    // Absorbed: every report accounted as accepted or rejected.
    const std::string prefix = "server" + std::to_string(round.server) + ".";
    uint64_t t_abs = 0;
    uint64_t accounted = 0;
    while (true) {
      const auto scrape = Scrape(control, false);
      ++polls;
      const uint64_t now = NowNs();
      if (!scrape) break;
      accounted = scrape->metrics.CounterOr(prefix + "accepted") +
                  scrape->metrics.CounterOr(prefix + "rejected");
      if (accounted >= c.users) {
        t_abs = now;
        break;
      }
      if ((now - t_last) / 1e9 > 30.0) break;
    }
    if (t_abs == 0) {
      out.Fail(c.users - std::min(accounted, c.users));
      out.Gate("report_accounting", false,
               "round " + std::to_string(r) + ": " + std::to_string(accounted) +
                   " of " + std::to_string(c.users) +
                   " reports accounted within 30 s");
      break;
    }

    // Finalize, then the first kOk answer.
    SendFinalize(control, next_session++, round.server);
    uint64_t send_ns = 0, recv_ns = 0;
    const Bytes first = CallUntilFinalized(control, probes[0], t_last + kDeadlineNs,
                                           &send_ns, &recv_ns,
                                           &not_finalized_retries);
    const uint64_t t_q = recv_ns;
    out.Attempt();
    if (first != in.queries.expected[0]) {
      out.Fail();
      out.Gate("wire_probe", false, "round " + std::to_string(r) +
                                        ": first answer after finalize differs "
                                        "from the in-process reference");
      break;
    }
    round.ingest_window_ns = static_cast<double>(t_abs - t_first);
    round.ingest_rps = c.users / (round.ingest_window_ns / 1e9);
    round.ttq_ms = NsToMs(t_q - t_last);
    round.drain_ms = NsToMs(t_abs - t_last);
    round.first_rtt_ms = NsToMs(recv_ns - send_ns);

    // Probes: byte-identical to the reference, timed as closed-loop RTTs.
    std::optional<ldp::obs::StatsResponse> before;
    if (trace) before = Scrape(control, false);
    for (size_t p = 1; p < c.probes; ++p) {
      const Bytes reply = CallTimed(control, probes[p], &send_ns, &recv_ns);
      out.Attempt();
      probe_rtt_us.push_back((recv_ns - send_ns) / 1e3);
      if (reply != in.queries.expected[p]) {
        out.Fail();
        out.Gate("wire_probe", false, "round " + std::to_string(r) +
                                          ": probe " + std::to_string(p) +
                                          " differs from the reference");
      }
    }
    if (trace) {
      const auto after = Scrape(control, false);
      if (before && after) {
        probe_query_ns.MergeFrom(
            HistogramDelta(ScrapedHistogram(*after, "service.query_ns"),
                           ScrapedHistogram(*before, "service.query_ns")));
      }
    }

    // Burst: c.burst queries written back to back, all due at once; each
    // answer is timed from the burst's start (the open-loop rule for
    // queries that arrive together).
    const uint64_t t_burst = NowNs();
    bool burst_sent = true;
    for (size_t q = 0; q < c.burst && burst_sent; ++q) {
      burst_sent = control.Send(probes[q]);
    }
    for (size_t q = 0; q < c.burst; ++q) {
      Bytes reply;
      const bool received = burst_sent && control.ReceiveMessage(&reply);
      burst_us.push_back((NowNs() - t_burst) / 1e3);
      out.Attempt();
      if (!received || reply != in.queries.expected[q]) {
        out.Fail();
        out.Gate("wire_probe", false, "round " + std::to_string(r) +
                                          ": burst answer " + std::to_string(q) +
                                          " differs from the reference");
        if (!received) break;
      }
    }
    // Fan-in, every fanin_every rounds: the two connection shares land as
    // one snapshot group in a fresh server.
    const uint64_t t_f0 = NowNs();
    for (uint64_t s = 0; fanin_round && s < 2; ++s) {
      ldp::net::SnapshotPushOptions opt;
      opt.jitter_seed = Mix(seed, r, s);
      const auto push = ldp::net::PushStateSnapshot(
          control, r + 1, fanin_server, s, 2, ldp::service::kMergeFlagFinalize,
          in.snapshots[s], opt);
      out.Attempt();
      if (!push.ok) {
        out.Fail();
        out.Gate("merge_acks", false,
                 "round " + std::to_string(r) + ": snapshot push " +
                     ldp::service::MergeStatusName(push.status));
      }
    }
    round.fanin_ms = fanin_round ? NsToMs(NowNs() - t_f0) : -1.0;
    for (size_t p = 0; fanin_round && p < fanin_probes.size(); ++p) {
      const Bytes reply = control.Call(fanin_probes[p]);
      out.Attempt();
      if (reply != in.fanin_queries.expected[p]) {
        out.Fail();
        out.Gate("fanin_probe", false,
                 "round " + std::to_string(r) + ": fan-in answer " +
                     std::to_string(p) + " differs from the union reference");
      }
    }
    round.wall_s = (NowNs() - t_first) / 1e9;
    spans.Record("round", round_span_start, NowNs(), 0, 0, round_span);
    rounds.push_back(round);
  }
  for (auto& client : senders) client.Close();

  // ---- Final scrape: per-server accounting and stage timings.
  const auto scrape = Scrape(control, true);
  control.Close();
  if (!scrape) {
    out.Gate("stats_scrape", false, "final kStatsQuery failed");
  }
  std::vector<double> stage_share, svc_finalize_ms;
  double absorb_busy_ns = 0, ingest_window_ns = 0;
  uint64_t rejected = 0;
  for (const Round& round : rounds) {
    if (!scrape) break;
    const std::string prefix = "server" + std::to_string(round.server) + ".";
    const uint64_t acc = scrape->metrics.CounterOr(prefix + "accepted");
    const uint64_t rej = scrape->metrics.CounterOr(prefix + "rejected");
    rejected += rej;
    if (acc + rej != expected_reports) {
      out.Fail(acc + rej > expected_reports ? acc + rej - expected_reports
                                            : expected_reports - acc - rej);
      out.Gate("report_accounting", false,
               prefix + " accounted " + std::to_string(acc + rej) + " of " +
                   std::to_string(expected_reports));
    }
    const double fin_ms =
        ScrapedHistogram(*scrape, prefix + "finalize_ns").sum / 1e6;
    svc_finalize_ms.push_back(fin_ms);
    absorb_busy_ns += ScrapedHistogram(*scrape, prefix + "absorb_batch_ns").sum;
    ingest_window_ns += round.ingest_window_ns;
    stage_share.push_back(
        (round.ttq_ms - (round.drain_ms + fin_ms + round.first_rtt_ms)) /
        round.ttq_ms);
  }
  out.Fail(rejected);
  out.Gate("report_accounting", rejected == 0 && !rounds.empty(),
           std::to_string(rounds.size()) + " rounds, " +
               std::to_string(rejected) + " reports rejected");
  out.Gate("wire_probe", true, "every probe answer byte-identical");
  out.Gate("fanin_probe", true, "every fan-in answer byte-identical");
  out.Gate("merge_acks", true, "every snapshot push acked ok");
  // Stage accounting: drain + server finalize + first query RTT must
  // account for time-to-queryable within 5% (median round).
  const double shortfall = Median(stage_share);
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "median unaccounted share of ttq %.4f (bound 0.05)", shortfall);
  out.Gate("stage_accounting", std::fabs(shortfall) <= 0.05, detail);

  // ---- Metrics.
  auto collect = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& round : rounds) v.push_back(round.*field);
    return v;
  };
  const uint64_t n = rounds.size();
  result.e2e["ingest_rps"] = {Median(collect(&Round::ingest_rps)), "1/s", n};
  result.e2e["ttq_ms"] = {Median(collect(&Round::ttq_ms)), "ms", n};
  // Quantiles of each round's burst (1024 answers, ten beyond the p99),
  // median over rounds: a round hit by a host stall moves them little.
  result.e2e["query_p50_us"] = {WindowedQuantile(burst_us, c.burst, 0.5), "us",
                                burst_us.size()};
  result.e2e["query_p99_us"] = {WindowedQuantile(burst_us, c.burst, 0.99), "us",
                                burst_us.size()};
  std::vector<double> fanin;
  for (double ms : collect(&Round::fanin_ms)) {
    if (ms >= 0) fanin.push_back(ms);
  }
  result.e2e["fanin_ms"] = {Median(fanin), "ms", fanin.size()};
  result.e2e["sim_trial_s"] = {Median(collect(&Round::wall_s)), "s", n};
  result.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  result.info["rounds"] = std::to_string(n);
  result.info["stage_unaccounted_share"] = std::to_string(shortfall);
  result.info["not_finalized_retries"] = std::to_string(not_finalized_retries);
  result.info["absorbed_polls"] = std::to_string(polls);

  if (trace) {
    auto per_report = [&](const char* name, uint64_t reports) {
      uint64_t count = 0;
      const uint64_t total = spans.TotalNs(name, &count);
      return Metric{reports ? static_cast<double>(total) / reports : 0.0, "ns",
                    count};
    };
    uint64_t absorb_chunks = 0;
    spans.TotalNs("protocol.absorb", &absorb_chunks);
    result.layer["protocol.encode_ns_per_report"] =
        per_report("protocol.encode", kSetupReps * c.users);
    result.layer["protocol.absorb_ns_per_report"] =
        per_report("protocol.absorb", absorb_chunks * c.chunk);
    auto median_ms = [&](const char* name) {
      const auto d = spans.Durations(name);
      return Metric{Median(d) / 1e6, "ms", d.size()};
    };
    result.layer["protocol.finalize_ms"] = median_ms("protocol.finalize");
    const auto q = spans.Durations("protocol.query");
    result.layer["protocol.query_ns"] = {Median(q), "ns", q.size()};
    result.layer["protocol.state_bytes"] = {
        (in.snapshots[0].size() + in.snapshots[1].size()) / 2.0, "bytes", 2};
    result.layer["protocol.serialize_state_ms"] =
        median_ms("protocol.serialize_state");
    result.layer["protocol.merge_state_ms"] = median_ms("protocol.merge_state");
    result.layer["service.drain_ms"] = {Median(collect(&Round::drain_ms)), "ms", n};
    result.layer["service.finalize_ms"] = {Median(svc_finalize_ms), "ms", n};
    result.layer["service.absorb_busy_share"] = {
        ingest_window_ns > 0 ? absorb_busy_ns / ingest_window_ns : 0.0, "ratio",
        n};
    result.layer["service.ttq_unaccounted_share"] = {shortfall, "ratio", n};
    result.layer["service.query_p50_us"] = {
        probe_query_ns.Quantile(0.5) / 1e3, "us", probe_query_ns.count};
    uint64_t sends = 0;
    const uint64_t send_ns_total = spans.TotalNs("net.send", &sends);
    result.layer["net.send_blocked_s"] = {
        n ? send_ns_total / 1e9 / n : 0.0, "s", sends};
    result.layer["net.query_overhead_us"] = {
        Quantile(probe_rtt_us, 0.5) - probe_query_ns.Quantile(0.5) / 1e3, "us",
        probe_rtt_us.size()};
    result.layer["net.gen_late_p99_ms"] = {0.0, "ms", 0};
    if (scrape) {
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
  if (!WriteResult(result, args.Str("out", "result.json"))) return 1;
  return out.correct() ? 0 : 3;
}

}  // namespace ldpbench
