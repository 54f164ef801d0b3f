#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/cpu_dispatch.h"

namespace ldpbench {

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1) + 0xBF58476D1CE4E5B9ULL * c;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& xs, size_t window,
                        double q) {
  if (window == 0 || xs.size() < window) return Quantile(xs, q);
  std::vector<double> per_window;
  size_t begin = 0;
  while (begin < xs.size()) {
    size_t end = std::min(xs.size(), begin + window);
    if (xs.size() - end < window / 2) end = xs.size();
    per_window.push_back(Quantile(
        std::vector<double>(xs.begin() + begin, xs.begin() + end), q));
    begin = end;
  }
  return Median(per_window);
}

void WaitUntil(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t SpanRecorder::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Record(const char* name, uint64_t start_ns,
                              uint64_t end_ns, uint64_t parent,
                              uint32_t thread, uint64_t id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, thread});
  return id;
}

uint64_t SpanRecorder::TotalNs(const std::string& name,
                               uint64_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0, n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end_ns - s.start_ns;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Outcome::Gate(const std::string& name, bool ok,
                   const std::string& detail) {
  GateResult& g = gates_[name];
  // A gate recorded several times (once per round) fails if any fails;
  // the first failure's detail is kept.
  if (g.ok) g.detail = detail;
  g.ok = g.ok && ok;
}

bool Outcome::correct() const {
  if (failed_ != 0 || attempted_ == 0) return false;
  for (const auto& [name, g] : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void WriteMetrics(std::ostream& out, const std::map<std::string, Metric>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": {\"value\": "
        << JsonNumber(metric.value) << ", \"unit\": \"" << metric.unit
        << "\", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "}";
}

}  // namespace

bool WriteResult(const RunResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"workload\": \"" << result.workload << "\",\n  \"seed\": "
      << result.seed << ",\n  \"trace\": " << (result.trace ? 1 : 0)
      << ",\n  \"correct\": " << (result.outcome.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << result.outcome.attempted()
      << ",\n  \"failed\": " << result.outcome.failed() << ",\n  \"gates\": {";
  bool first = true;
  for (const auto& [name, g] : result.outcome.gates()) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": {\"ok\": "
        << (g.ok ? "true" : "false") << ", \"detail\": \""
        << JsonEscape(g.detail) << "\"}";
    first = false;
  }
  out << "},\n  \"e2e\": ";
  WriteMetrics(out, result.e2e);
  out << ",\n  \"layer\": ";
  WriteMetrics(out, result.layer);
  out << ",\n  \"info\": {";
  first = true;
  for (const auto& [k, v] : result.info) {
    out << (first ? "" : ",") << "\n    \"" << k << "\": \"" << JsonEscape(v)
        << "\"";
    first = false;
  }
  out << "}\n}\n";
  return static_cast<bool>(out);
}

void AddHostInfo(RunResult& result) {
  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["build_type"] = LDPBENCH_BUILD_TYPE;
  result.info["compiler"] = LDPBENCH_COMPILER;
  result.info["simd_tier"] =
      std::string(ldp::SimdTierName(ldp::ResolvedSimdTier()));
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[key] = argv[++i];
    } else {
      kv_[key] = "1";
    }
  }
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

uint64_t Args::U64(const std::string& key, uint64_t fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : std::stoull(it->second);
}

double Args::F64(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : std::stod(it->second);
}

}  // namespace ldpbench
