// Shared plumbing of the ldpbench binary: clocks, order statistics, the
// in-memory span recorder, correctness-gate accounting and the result
// file every subcommand writes for run.py.

#ifndef LDPBENCH_BENCH_COMMON_H_
#define LDPBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ldpbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// How many times each run builds its inputs; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Longest wait for any single answer or state change on the wire; past
/// it the run fails instead of hanging.
inline constexpr uint64_t kDeadlineNs = 30'000'000'000;

/// Deterministic 64-bit mixer (splitmix64 finalizer): derives independent
/// stream seeds from (workload seed, tag, index).
uint64_t Mix(uint64_t a, uint64_t b = 0, uint64_t c = 0);

/// Median of a sample (0 when empty).
double Median(std::vector<double> xs);

/// q-quantile by linear interpolation between order statistics, the
/// "inclusive" method of Python's statistics.quantiles (0 when empty).
double Quantile(std::vector<double> xs, double q);

/// Median over consecutive windows of `window` samples of each window's
/// q-quantile (a trailing window shorter than half is merged into the one
/// before it). Robust to one disturbed stretch of a run, unlike the
/// quantile of the pooled sample. Falls back to the pooled quantile when
/// there is less than one window.
double WindowedQuantile(const std::vector<double>& xs, size_t window, double q);

/// Peak resident set size (VmHWM) of this process, in MiB.
double PeakRssMb();

/// Sleeps until the steady-clock instant `due_ns` (returns at once when it
/// has passed). Threads that pace open-loop traffic set a 1 ns timer slack
/// first, so wake-ups are as punctual as the kernel allows.
void WaitUntil(uint64_t due_ns);

/// One end-to-end or per-layer reading: the value, its unit and how many
/// samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Spans recorded by the benchmark around calls into the library's
/// public functions. Disabled recorders cost one branch per span. Spans
/// are kept in memory (tagged with a thread number) and written out when
/// the run ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint32_t thread = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id, for a parent span recorded after its children.
  uint64_t NewId();

  /// Appends one finished span; returns its id (0 when disabled). `id` 0
  /// allocates a fresh one.
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent = 0, uint32_t thread = 0, uint64_t id = 0);

  /// Sum of the durations of every span named `name`, and their count.
  uint64_t TotalNs(const std::string& name, uint64_t* count = nullptr) const;
  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Chrome trace-event JSON of every span (ts/dur in microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Times one scope into a SpanRecorder (no clock reads when disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t parent = 0,
             uint32_t thread = 0)
      : rec_(rec), name_(name), parent_(parent), thread_(thread),
        start_(rec.enabled() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (rec_.enabled()) rec_.Record(name_, start_, NowNs(), parent_, thread_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  uint64_t parent_;
  uint32_t thread_;
  uint64_t start_;
};

/// Correctness accounting. Every operation the workload attempts is
/// counted; a failed operation (rejected or unaccounted report, non-kOk
/// or wrong answer, rejected merge, verification mismatch) is counted
/// against it. Named gates record pass/fail with a detail line.
class Outcome {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// Records gate `name`; a failed gate makes the run incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const;

  struct GateResult {
    bool ok = true;
    std::string detail;
  };
  const std::map<std::string, GateResult>& gates() const { return gates_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, GateResult> gates_;
};

/// Everything one subcommand hands back to run.py.
struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  Outcome outcome;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> info;  // free-form notes (strings)
};

/// Writes `result` as JSON to `path`; false on I/O failure.
bool WriteResult(const RunResult& result, const std::string& path);

/// Host metadata recorded with every result: CPUs, build type, compiler
/// and the SIMD tier the library dispatches to.
void AddHostInfo(RunResult& result);

/// Parsed "--key value" command line.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& fallback) const;
  uint64_t U64(const std::string& key, uint64_t fallback) const;
  double F64(const std::string& key, double fallback) const;
  bool Has(const std::string& key) const { return kv_.count(key) != 0; }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace ldpbench

#endif  // LDPBENCH_BENCH_COMMON_H_
