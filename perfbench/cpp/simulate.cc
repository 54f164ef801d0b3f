// simulate: the paper's Section 5 trial loop in one process — no service,
// no socket. One pass runs one trial per method: encode N users (two
// shards on two threads, then merged), finalize, and answer and score a
// fixed random query set against ground truth. Passes repeat until the
// run's time is up; medians over passes are reported.
//
// Correctness gate: each method's observed errors must be consistent
// with the stddev its RangeEstimate predicts (RMS z-score within bounds).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "common/stats.h"
#include "core/method.h"
#include "data/distributions.h"
#include "frequency/frequency_oracle.h"
#include "workloads.h"

namespace ldpbench {
namespace {

struct SimMethod {
  std::string name;
  ldp::MethodSpec spec;
  uint64_t domain = 0;  // per axis
  uint32_t dims = 1;
};

// One method's fixed inputs: the population (row-major coordinates),
// a query set of boxes and their true answers.
struct SimInputs {
  std::vector<uint64_t> coords;
  std::vector<std::vector<ldp::AxisInterval>> boxes;
  std::vector<double> truth;
};

// Bounds of the RMS z-score gate. A correct mechanism reads about 1 (or
// below, where the predicted stddev is a worst-case envelope); the
// bounds are wide because one trial's errors are correlated across
// overlapping ranges.
constexpr double kZRmsMin = 0.05;
constexpr double kZRmsMax = 3.0;

SimInputs BuildInputs(const SimMethod& m, uint64_t users, uint64_t queries,
                      uint64_t seed) {
  SimInputs in;
  const ldp::CauchyDistribution dist(m.domain, 0.4);
  ldp::Rng rng(seed);
  in.coords.resize(users * m.dims);
  for (uint64_t& v : in.coords) v = dist.Sample(rng);
  // Exact prefix sums over the (1- or 2-D) cell grid.
  const uint64_t d = m.domain;
  std::vector<double> prefix;
  if (m.dims == 1) {
    prefix.assign(d + 1, 0.0);
    for (uint64_t v : in.coords) prefix[v + 1] += 1.0;
    for (uint64_t i = 0; i < d; ++i) prefix[i + 1] += prefix[i];
  } else {
    prefix.assign((d + 1) * (d + 1), 0.0);
    for (uint64_t u = 0; u < users; ++u) {
      prefix[(in.coords[2 * u] + 1) * (d + 1) + in.coords[2 * u + 1] + 1] += 1.0;
    }
    for (uint64_t x = 1; x <= d; ++x) {
      for (uint64_t y = 1; y <= d; ++y) {
        prefix[x * (d + 1) + y] += prefix[(x - 1) * (d + 1) + y] +
                                   prefix[x * (d + 1) + y - 1] -
                                   prefix[(x - 1) * (d + 1) + y - 1];
      }
    }
  }
  ldp::Rng qrng(Mix(seed, 1));
  for (uint64_t q = 0; q < queries; ++q) {
    std::vector<ldp::AxisInterval> box(m.dims);
    for (auto& axis : box) {
      axis.lo = qrng.UniformInt(d);
      axis.hi = qrng.UniformInt(d);
      if (axis.lo > axis.hi) std::swap(axis.lo, axis.hi);
    }
    double count = 0;
    if (m.dims == 1) {
      count = prefix[box[0].hi + 1] - prefix[box[0].lo];
    } else {
      auto at = [&](uint64_t x, uint64_t y) { return prefix[x * (d + 1) + y]; };
      count = at(box[0].hi + 1, box[1].hi + 1) - at(box[0].lo, box[1].hi + 1) -
              at(box[0].hi + 1, box[1].lo) + at(box[0].lo, box[1].lo);
    }
    in.boxes.push_back(std::move(box));
    in.truth.push_back(count / static_cast<double>(users));
  }
  return in;
}

struct MethodTimes {
  std::vector<double> encode_s, finalize_s, query_s;
  double z_sum2 = 0;
  uint64_t z_count = 0, z_skipped = 0;
};

}  // namespace

int RunSimulate(const Args& args) {
  const uint64_t seed = args.U64("seed", 1);
  const bool trace = args.U64("trace", 0) != 0;
  const bool smoke = args.Has("smoke");
  const double seconds = args.F64("seconds", 10.0);
  const std::string corrupt = args.Str("corrupt", "");
  const uint64_t users = smoke ? uint64_t{1} << 14 : uint64_t{1} << 20;
  const uint64_t queries = smoke ? 200 : 1000;
  const double eps = std::log(3.0);
  const uint64_t olh_domain = smoke ? 256 : 1024;

  RunResult result;
  result.workload = "simulate";
  result.seed = seed;
  result.trace = trace;
  AddHostInfo(result);
  Outcome& out = result.outcome;
  SpanRecorder spans(trace);

  const uint64_t d16 = uint64_t{1} << 16;
  const std::vector<SimMethod> methods = {
      {"HaarHRR", ldp::MethodSpec::Haar(), d16, 1},
      {"HHc4", ldp::MethodSpec::Hh(4, ldp::OracleKind::kOueSimulated, true), d16, 1},
      {"AHEAD4", ldp::MethodSpec::Ahead(4), d16, 1},
      {"HH2D2", ldp::MethodSpec::Hier2D(2), 256, 2},
      {"HHc4-OLH", ldp::MethodSpec::Hh(4, ldp::OracleKind::kOlh, true), olh_domain, 1},
  };

  // ---- Set-up: populations, query sets and ground truth, kSetupReps times.
  std::vector<double> setup_s;
  std::vector<SimInputs> inputs;
  bool deterministic = true;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNs();
    std::vector<SimInputs> built;
    for (size_t m = 0; m < methods.size(); ++m) {
      built.push_back(BuildInputs(methods[m], users, queries, Mix(seed, 30 + m)));
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (rep == 0) {
      inputs = std::move(built);
    } else {
      for (size_t m = 0; m < methods.size(); ++m) {
        deterministic = deterministic && built[m].coords == inputs[m].coords &&
                        built[m].truth == inputs[m].truth;
      }
    }
  }
  out.Gate("setup_determinism", deterministic,
           "every input build from one seed is identical");

  // ---- Passes.
  std::vector<MethodTimes> times(methods.size());
  std::vector<double> pass_s, ingest_rps, ttq_ms, fanin_ms, query_us;
  const double stddev_scale = corrupt == "zscore" ? 0.05 : 1.0;
  const uint64_t run_start = NowNs();
  for (uint64_t pass = 0;; ++pass) {
    if (pass > 0 && (NowNs() - run_start) / 1e9 >= seconds) break;
    const uint64_t pass_start = NowNs();
    const uint64_t pass_span = spans.NewId();
    double encode_total_s = 0, ttq_total_ms = 0, merge_total_ms = 0;
    for (size_t m = 0; m < methods.size(); ++m) {
      const SimMethod& method = methods[m];
      const SimInputs& in = inputs[m];
      auto mech = ldp::MakeMechanismBase(method.spec, method.domain, eps);

      // Encode: two shards on two threads, then merged (the fan-in).
      const uint64_t t_enc = NowNs();
      std::unique_ptr<ldp::MechanismBase> shards[2] = {mech->CloneEmptyBase(),
                                                       mech->CloneEmptyBase()};
      {
        const size_t half_users = (users + 1) / 2;
        std::thread threads[2];
        for (int s = 0; s < 2; ++s) {
          threads[s] = std::thread([&, s] {
            const size_t begin = s * half_users * method.dims;
            const size_t end = std::min(in.coords.size(),
                                        (s + 1) * half_users * method.dims);
            ldp::Rng rng(Mix(seed, 1000 * pass + m, s));
            shards[s]->EncodePoints(
                std::span<const uint64_t>(in.coords.data() + begin, end - begin),
                rng);
          });
        }
        for (auto& t : threads) t.join();
      }
      const uint64_t t_merge = NowNs();
      mech->MergeFromBase(*shards[0]);
      mech->MergeFromBase(*shards[1]);
      const uint64_t t_fin = NowNs();
      ldp::Rng frng(Mix(seed, 1000 * pass + m, 7));
      mech->Finalize(frng);
      const uint64_t t_query = NowNs();
      spans.Record("core.encode", t_enc, t_merge, pass_span);
      spans.Record("core.merge", t_merge, t_fin, pass_span);
      spans.Record("core.finalize", t_fin, t_query, pass_span);

      // Answer and score the query set.
      ldp::ErrorStat errors;
      uint64_t first_answer_ns = 0;
      for (size_t q = 0; q < in.boxes.size(); ++q) {
        const uint64_t q0 = NowNs();
        const ldp::RangeEstimate est = mech->BoxQueryWithUncertainty(in.boxes[q]);
        const uint64_t q1 = NowNs();
        if (q == 0) first_answer_ns = q1;
        query_us.push_back((q1 - q0) / 1e3);
        errors.Add(est.value, in.truth[q]);
        const double sd = est.stddev * stddev_scale;
        if (std::isfinite(sd) && sd > 0) {
          const double z = (est.value - in.truth[q]) / sd;
          times[m].z_sum2 += z * z;
          ++times[m].z_count;
        } else {
          ++times[m].z_skipped;
        }
      }
      const uint64_t t_done = NowNs();
      spans.Record("eval.query", t_query, t_done, pass_span);
      out.Attempt(users + in.boxes.size());
      if (!std::isfinite(errors.mse())) {
        out.Fail();
        out.Gate("zscore", false, method.name + ": non-finite error");
      }
      times[m].encode_s.push_back((t_merge - t_enc) / 1e9);
      times[m].finalize_s.push_back((t_query - t_fin) / 1e9);
      times[m].query_s.push_back((t_done - t_query) / 1e9);
      encode_total_s += (t_fin - t_enc) / 1e9;
      merge_total_ms += NsToMs(t_fin - t_merge);
      ttq_total_ms += NsToMs(first_answer_ns - t_fin);
    }
    const uint64_t pass_end = NowNs();
    spans.Record("pass", pass_start, pass_end, 0, 0, pass_span);
    pass_s.push_back((pass_end - pass_start) / 1e9);
    ingest_rps.push_back(users * methods.size() / encode_total_s);
    ttq_ms.push_back(ttq_total_ms);
    fanin_ms.push_back(merge_total_ms);
  }

  // ---- Gate: observed error consistent with predicted stddev.
  for (size_t m = 0; m < methods.size(); ++m) {
    const MethodTimes& t = times[m];
    const double rms =
        t.z_count ? std::sqrt(t.z_sum2 / static_cast<double>(t.z_count)) : 0.0;
    char detail[200];
    std::snprintf(detail, sizeof detail,
                  "%s: RMS z %.3f over %llu answers (%llu without a finite "
                  "stddev), bounds [%.2f, %.2f]",
                  methods[m].name.c_str(), rms,
                  static_cast<unsigned long long>(t.z_count),
                  static_cast<unsigned long long>(t.z_skipped), kZRmsMin,
                  kZRmsMax);
    const bool ok = t.z_count > 0 && rms >= kZRmsMin && rms <= kZRmsMax;
    if (!ok) out.Fail();
    out.Gate("zscore." + methods[m].name, ok, detail);
    result.info["zscore_rms." + methods[m].name] = std::to_string(rms);
  }

  const uint64_t n = pass_s.size();
  result.e2e["sim_trial_s"] = {Median(pass_s), "s", n};
  result.e2e["ingest_rps"] = {Median(ingest_rps), "1/s", n};
  result.e2e["ttq_ms"] = {Median(ttq_ms), "ms", n};
  result.e2e["fanin_ms"] = {Median(fanin_ms), "ms", n};
  // Quantiles per pass (every method's query set), median over passes.
  const size_t window = methods.size() * queries;
  result.e2e["query_p50_us"] = {WindowedQuantile(query_us, window, 0.5), "us",
                                query_us.size()};
  result.e2e["query_p99_us"] = {WindowedQuantile(query_us, window, 0.99), "us",
                                query_us.size()};
  result.e2e["setup_s"] = {Median(setup_s), "s", setup_s.size()};
  result.e2e["peak_rss_mb"] = {PeakRssMb(), "MiB", 1};
  result.info["passes"] = std::to_string(n);
  result.info["users_per_method"] = std::to_string(users);
  result.info["olh_domain"] = std::to_string(olh_domain);

  const double olh_share =
      Median(times.back().finalize_s) / std::max(1e-12, Median(pass_s));
  result.info["olh_finalize_share_of_pass"] = std::to_string(olh_share);
  if (trace) {
    for (size_t m = 0; m < methods.size(); ++m) {
      const std::string& name = methods[m].name;
      result.layer["core.encode_s." + name] = {Median(times[m].encode_s), "s", n};
      result.layer["core.finalize_s." + name] = {Median(times[m].finalize_s), "s", n};
      result.layer["eval.query_s." + name] = {Median(times[m].query_s), "s", n};
    }
    result.layer["frequency.olh_finalize_share"] = {olh_share, "ratio", n};
    // Standalone OLH oracle at the deepest HHc4-OLH level: the users one
    // level receives, submitted in one batch, then the deferred decode.
    const uint64_t levels = static_cast<uint64_t>(
        std::ceil(std::log2(static_cast<double>(olh_domain)) / 2.0));
    const std::vector<uint64_t>& coords = inputs.back().coords;
    const std::vector<uint64_t> level_values(coords.begin(),
                                             coords.begin() + users / levels);
    std::vector<double> olh_s;
    for (int rep = 0; rep < 3; ++rep) {
      auto oracle = ldp::MakeOracle(ldp::OracleKind::kOlh, olh_domain, eps);
      ldp::Rng rng(Mix(seed, 40, rep));
      oracle->SubmitBatch(level_values, rng);
      const uint64_t t0 = NowNs();
      oracle->Finalize(rng);
      const uint64_t t1 = NowNs();
      spans.Record("frequency.olh_finalize", t0, t1);
      olh_s.push_back((t1 - t0) / 1e9);
    }
    result.layer["frequency.olh_finalize_s"] = {Median(olh_s), "s", olh_s.size()};
    const std::string span_path = args.Str("spans", "");
    if (!span_path.empty()) spans.WriteChromeTrace(span_path);
  }
  if (!WriteResult(result, args.Str("out", "result.json"))) return 1;
  return out.correct() ? 0 : 3;
}

}  // namespace ldpbench
