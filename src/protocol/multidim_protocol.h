// Deployable client/server split of the multidimensional hierarchical
// grid mechanism (paper Section 6).
//
// Each user samples a level tuple (l_1, ..., l_d) uniformly from the
// (h+1)^d - 1 non-trivial tuples and reports their cell in that tuple's
// product grid through OLH — the oracle whose report size and variance
// are independent of the cell count, which here grows as a product over
// axes. The report is the sampled tuple plus the OLH (seed, perturbed
// cell) pair; every tuple grid shares one hash range g so the client
// does not need to know which grid the server will route to.
//
// The server is a wire adapter over the core mechanism: it owns one
// deferred OLH HierarchicalGrid (core/multidim.h) and adds only the
// report check, the state-snapshot body codec and the axis-0 view the
// 1-D AggregatorServer contract asks for. Finalize, box queries,
// uncertainty, clone and merge are the grid's own, so a served answer,
// stddev included, is bit-identical to the core grid fed the same
// points from the same Rng.
//
// Payload layouts (MultiDimLayout, framed by the shared report codec,
// report_codec.h; see envelope.h for the surrounding header):
//   kMultiDimReport       [dims u8][dims x level u8][seed u64][cell u32]
//   kMultiDimReportBatch  [dims u8][count varint]
//                           [count x (dims x level u8, seed u64, cell u32)]
// Unlike the 1-D layouts, this one has a header: dims is hoisted to the
// front of the batch — that keeps every item the same fixed size
// (dims + 12 bytes), so the structural count-vs-bytes check stays exact.
// All parsers are total over adversarial bytes.

#ifndef LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/badic.h"
#include "core/multidim.h"
#include "protocol/envelope.h"
#include "protocol/report_codec.h"
#include "protocol/wire.h"

namespace ldp::protocol {

/// A report's per-axis levels with fixed capacity kMaxWireDimensions, so
/// decoding a report never allocates. Slots past size() stay zero.
class LevelTuple {
 public:
  LevelTuple() = default;
  LevelTuple(std::initializer_list<uint8_t> levels) {
    resize(levels.size());
    std::copy(levels.begin(), levels.end(), levels_.begin());
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void resize(size_t n) {
    LDP_CHECK_LE(n, levels_.size());
    // Slots past size() are zero already, so only a shrink clears any;
    // re-sizing a decoded report to its own dims costs one compare.
    if (n < size_) std::fill(levels_.begin() + n, levels_.begin() + size_, 0);
    size_ = static_cast<uint8_t>(n);
  }
  uint8_t& operator[](size_t i) { return levels_[i]; }
  uint8_t operator[](size_t i) const { return levels_[i]; }
  const uint8_t* begin() const { return levels_.data(); }
  const uint8_t* end() const { return levels_.data() + size_; }

  bool operator==(const LevelTuple&) const = default;

 private:
  std::array<uint8_t, kMaxWireDimensions> levels_{};
  uint8_t size_ = 0;
};

/// One multidim grid report: the sampled per-axis levels (levels[0] is
/// dimension 0; not all zero — the all-root tuple carries no report) and
/// the OLH (seed, perturbed cell) pair for that tuple's product grid.
struct MultiDimReport {
  LevelTuple levels;
  uint64_t seed = 0;
  uint32_t cell = 0;

  bool operator==(const MultiDimReport&) const = default;
};

/// The multidim report layout: a [dims u8] header (1..kMaxWireDimensions)
/// and items of dims + 12 bytes. Serializing needs `dims` (every report
/// must carry exactly that many levels); parsing reads it from the header.
/// An all-root level tuple is malformed.
struct MultiDimLayout {
  using Item = MultiDimReport;
  uint32_t dims = 0;

  static MechanismTag tag() { return MechanismTag::kMultiDimReport; }
  static MechanismTag batch_tag() {
    return MechanismTag::kMultiDimReportBatch;
  }
  size_t item_size() const { return dims + 12; }
  void AppendHeader(std::vector<uint8_t>& out) const {
    LDP_CHECK_GE(dims, 1u);
    LDP_CHECK_LE(dims, kMaxWireDimensions);
    AppendU8(out, static_cast<uint8_t>(dims));
  }
  bool ReadHeader(WireReader& reader) {
    uint8_t wire_dims = 0;
    if (!reader.ReadU8(&wire_dims) || wire_dims == 0 ||
        wire_dims > kMaxWireDimensions) {
      return false;
    }
    dims = wire_dims;
    return true;
  }
  void Append(std::vector<uint8_t>& out, const MultiDimReport& report) const {
    LDP_CHECK_EQ(report.levels.size(), size_t{dims});
    for (uint8_t level : report.levels) AppendU8(out, level);
    AppendU64(out, report.seed);
    AppendU32(out, report.cell);
  }
  bool Decode(const uint8_t* slot, MultiDimReport* report) const {
    report->levels.resize(dims);
    uint8_t any_level = 0;
    for (uint32_t dim = 0; dim < dims; ++dim) {
      report->levels[dim] = slot[dim];
      any_level |= slot[dim];
    }
    report->seed = LoadU64(slot + dims);
    report->cell = LoadU32(slot + dims + 8);
    return any_level != 0;
  }
};

/// Client-side encoder.
class MultiDimClient {
 public:
  MultiDimClient(uint64_t domain_per_dim, uint32_t dimensions, double eps,
                 uint64_t fanout = 2);

  const TreeShape& shape() const { return shape_; }
  uint32_t dimensions() const { return dims_; }
  /// The shared OLH hash range g (optimal for eps); the server must be
  /// built with the same eps to agree on it.
  uint64_t hash_range() const { return g_; }

  /// Randomizes one point (`coords` holds dimensions() values, each in
  /// [0, domain_per_dim)).
  MultiDimReport Encode(const uint64_t* coords, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(const uint64_t* coords,
                                        Rng& rng) const;

  /// Batched encode over row-major points (coords.size() = n * d), one
  /// report per point, drawn exactly as the Encode loop would.
  std::vector<MultiDimReport> EncodeUsers(std::span<const uint64_t> coords,
                                          Rng& rng) const;

  /// Batched encode + one framed v2 batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> coords,
                                             Rng& rng) const;

  /// Deterministic parallel encode: points are cut into fixed-size
  /// chunks, each drawn from its own seed-derived Rng into its own
  /// report slots, so the result is bit-identical for every `threads`
  /// value (0 = one per hardware core) — the wire-side analogue of
  /// core EncodePointsSharded.
  std::vector<MultiDimReport> EncodeUsersSharded(
      std::span<const uint64_t> coords, uint64_t seed,
      unsigned threads = 0) const;

 private:
  uint32_t dims_;
  double eps_;
  TreeShape shape_;
  uint64_t g_;
  uint64_t tuple_count_;  // (h+1)^d, including the all-root tuple
};

/// Server-side aggregator: a codec adapter over one deferred OLH
/// HierarchicalGrid (see file comment). Serialized ingestion and its
/// accounting come from ReportServer (Absorb counts one report, a batch
/// adds its totals once per message); finalize discipline and quantile
/// search from service::AggregatorServer. RangeQuery answers are the
/// axis-0 marginal (remaining axes spanning their full domain).
class MultiDimServer final
    : public ReportServer<MultiDimServer, MultiDimLayout> {
 public:
  MultiDimServer(
      uint64_t domain_per_dim, uint32_t dimensions, double eps,
      uint64_t fanout = 2,
      uint64_t max_total_cells = HierarchicalGrid::kDefaultCellBudget);

  std::string Name() const override;
  const TreeShape& shape() const { return grid_->shape(); }
  /// Per-axis domain (the AggregatorServer contract for multidim).
  uint64_t domain() const override { return grid_->domain_per_dim(); }
  uint32_t dimensions() const override { return dims_; }
  uint64_t hash_range() const { return g_; }

  /// System allocations ever made by the grid's report columns.
  /// Arena-backed appends make this flat per absorbed chunk at steady
  /// state — the zero-copy ingestion contract's test hook.
  uint64_t report_allocation_count() const {
    return grid_->record_allocation_count();
  }

  double BoxQuery(std::span<const AxisInterval> box) const override {
    return grid_->BoxQuery(box);
  }
  /// Uncertainty is the Section 6 cross-product accounting: the summed
  /// OLH estimator variances of the covering cells.
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const override {
    return grid_->BoxQueryWithUncertainty(box);
  }

  double RangeQuery(uint64_t a, uint64_t b) const override;
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  /// Axis-0 marginal frequencies (length = domain()).
  std::vector<double> EstimateFrequencies() const override;

 private:
  friend ReportServer;

  explicit MultiDimServer(std::unique_ptr<HierarchicalGrid> grid);

  /// Checks and folds one report (ReportServer counts it): false on a
  /// dims mismatch, an out-of-range level, an all-root tuple, or a cell
  /// >= hash_range(). The grid CHECKs that it is not finalized.
  bool Accept(const MultiDimReport& report) {
    if (report.levels.size() != dims_ || report.cell >= g_) return false;
    const uint64_t radix = uint64_t{height_} + 1;
    uint64_t tuple = 0;
    uint64_t tuple_stride = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      const uint8_t level = report.levels[dim];
      if (level > height_) return false;
      tuple += uint64_t{level} * tuple_stride;
      tuple_stride *= radix;
    }
    // The all-root tuple carries no report.
    if (tuple == 0) return false;
    grid_->AbsorbOlhReport(static_cast<uint32_t>(tuple), report.seed,
                           report.cell);
    return true;
  }

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kGrid;
  }
  uint64_t state_fanout() const override { return shape().fanout(); }
  double state_epsilon() const override { return grid_->epsilon(); }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  std::unique_ptr<HierarchicalGrid> grid_;
  // The report check's bounds, copied from the grid.
  uint32_t dims_;
  uint32_t height_;
  uint64_t g_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_
