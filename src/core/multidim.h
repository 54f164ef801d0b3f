// Multidimensional hierarchical range queries (paper Section 6).
//
// The 1-D hierarchical decomposition extends to [D]^d by crossing the
// per-dimension B-adic trees: each user samples a LEVEL TUPLE
// (l_1, ..., l_d) uniformly from the (h+1)^d - 1 tuples other than the
// all-root tuple (whose single cell is the whole space, known exactly) and
// reports the one-hot indicator of their cell in the product grid
// B^{l_1} x ... x B^{l_d} through a frequency oracle. An axis-aligned box
// query decomposes into the cross product of the per-axis B-adic
// decompositions — O(log_B^d D) cells — giving the paper's log^{2d} D
// variance scaling for d dimensions.
//
// Memory grows as (D·B/(B-1))^d — per the paper, beyond d = 2..3 coarser
// gridding is preferable; a guard rejects configurations whose total cell
// count would exceed an explicit budget (typed error via Create(), CHECK
// in the constructor).
//
// Two decode strategies (GridDecode in the config):
//  * kDeferred (default) — ingestion appends compact (tuple, cell[, seed])
//    records into arena-backed columns and Finalize runs one sharded pass:
//    records are partitioned by tuple (counting sort), then a ParallelFor
//    over tuples histograms each tuple's contiguous slice and fuses the
//    aggregate noise draw with the debiased estimate. No per-tuple oracle
//    objects exist at all — construction stops zeroing O(total_cells)
//    count vectors, ingest touches 8-16 bytes per report, and the decode
//    is one cache-blocked scan per tuple.
//  * kEager — one FrequencyOracle per tuple, reports folded into oracle
//    state at ingest, Finalize per oracle; the reference implementation.
// Both modes consume identical client-side Rng streams at ingest and fork
// one decode stream per tuple (in tuple order) at Finalize, so their
// estimates are BIT-IDENTICAL to each other and across thread counts.
// Deferral covers kOueSimulated, kSueSimulated, kGrr and kOlh; the
// per-user-exact kinds (kOue, kSue, kHrr) randomize each report at
// submission time and silently fall back to eager.
//
// The deferred OLH grid is also the wire grid's aggregate: the served
// MultiDimServer (protocol/multidim_protocol.h) feeds client-randomized
// (tuple, seed, cell) reports straight into the record columns through
// AbsorbOlhReport and reads them back, grouped by tuple, for its state
// snapshots. Its clients and EncodePoint pick the level tuple and cell
// through the same DrawGridCell.

#ifndef LDPRANGE_CORE_MULTIDIM_H_
#define LDPRANGE_CORE_MULTIDIM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/random.h"
#include "core/badic.h"
#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// When the grid turns ingested reports into estimates (see file comment).
enum class GridDecode {
  kDeferred,
  kEager,
};

/// Configuration for the multidimensional hierarchical mechanisms.
struct HierarchicalGridConfig {
  uint64_t fanout = 2;
  OracleKind oracle = OracleKind::kOueSimulated;
  GridDecode decode = GridDecode::kDeferred;
};

/// True when `kind` can be decoded at Finalize time from recorded
/// (tuple, cell[, seed]) reports — i.e. its client-side randomization and
/// aggregate state fit the deferred grid's record format.
bool GridOracleDeferrable(OracleKind kind);

/// Overflow-safe cell accounting for a prospective d-dimensional grid:
/// sums the product-grid sizes of every non-trivial level tuple into
/// `*total_cells`. Returns false (leaving `*total_cells` untouched) when
/// the total exceeds `budget` or any intermediate product overflows.
/// Shared by HierarchicalGrid and the wire-facing MultiDimClient so both
/// reject over-budget configurations identically.
bool GridCellsWithinBudget(const TreeShape& shape, uint32_t dims,
                           uint64_t budget, uint64_t* total_cells);

/// One user's draw on the grid: the sampled level tuple, the user's cell in
/// that tuple's product grid (both flattened as VisitGridBoxCells does)
/// and the number of cells in that grid.
struct GridCellDraw {
  uint64_t tuple;
  uint64_t cell;
  uint64_t cells;
};

/// The client side's first step for every grid report: samples the level
/// tuple uniformly from the non-trivial tuples [1, tuple_count) — one
/// UniformInt draw from `rng` — and flattens the cell holding `coords`
/// (dims values, each in [0, shape.domain())). When `levels` is non-null
/// it receives the tuple's per-axis levels.
inline GridCellDraw DrawGridCell(const TreeShape& shape, uint32_t dims,
                                 uint64_t tuple_count, const uint64_t* coords,
                                 Rng& rng, uint8_t* levels = nullptr) {
  const uint64_t radix = uint64_t{shape.height()} + 1;
  for (uint32_t dim = 0; dim < dims; ++dim) {
    LDP_CHECK_LT(coords[dim], shape.domain());
  }
  // Uniform level tuple, skipping the all-root tuple 0; then decode it and
  // flatten the user's cell within that tuple's grid.
  GridCellDraw draw{1 + rng.UniformInt(tuple_count - 1), 0, 1};
  uint64_t rest = draw.tuple;
  for (uint32_t dim = 0; dim < dims; ++dim) {
    const uint32_t level = static_cast<uint32_t>(rest % radix);
    rest /= radix;
    if (levels != nullptr) levels[dim] = static_cast<uint8_t>(level);
    draw.cell += shape.NodeContaining(level, coords[dim]) * draw.cells;
    draw.cells *= shape.NodesAtLevel(level);
  }
  return draw;
}

/// Walks the O(log_B^d D) grid cells covering the axis-aligned box — the
/// cross product of the per-axis B-adic decompositions. Invokes
/// visit(tuple, cell) with the level tuple flattened little-endian in
/// mixed radix (h+1)^d (dimension 0 least significant) and the cell
/// flattened the same way within that tuple's product grid.
template <typename CellVisitor>
void VisitGridBoxCells(const TreeShape& shape, uint32_t dims,
                       std::span<const AxisInterval> box,
                       CellVisitor&& visit) {
  LDP_CHECK_EQ(box.size(), static_cast<size_t>(dims));
  const uint64_t radix = uint64_t{shape.height()} + 1;
  std::vector<std::vector<TreeNode>> axis_nodes(dims);
  for (uint32_t dim = 0; dim < dims; ++dim) {
    LDP_CHECK_LE(box[dim].lo, box[dim].hi);
    LDP_CHECK_LT(box[dim].hi, shape.domain());
    axis_nodes[dim] = shape.Decompose(box[dim].lo, box[dim].hi);
  }
  // Walk the cross product of the per-axis decompositions.
  std::vector<size_t> pick(dims, 0);
  for (;;) {
    uint64_t tuple = 0;
    uint64_t cell = 0;
    uint64_t cell_stride = 1;
    uint64_t tuple_stride = 1;
    for (uint32_t dim = 0; dim < dims; ++dim) {
      const TreeNode& node = axis_nodes[dim][pick[dim]];
      tuple += static_cast<uint64_t>(node.level) * tuple_stride;
      tuple_stride *= radix;
      cell += node.index * cell_stride;
      cell_stride *= shape.NodesAtLevel(node.level);
    }
    visit(tuple, cell);
    // Advance the odometer.
    uint32_t dim = 0;
    for (; dim < dims; ++dim) {
      if (++pick[dim] < axis_nodes[dim].size()) break;
      pick[dim] = 0;
    }
    if (dim == dims) break;
  }
}

/// General d-dimensional hierarchical grids ("for d-dimensional data we
/// achieve variance depending on log^{2d} D", paper Section 6), on the
/// dimension-aware MechanismBase contract: points are spans of d
/// coordinates, queries axis-aligned boxes, with batched
/// (EncodePoints) and sharded (EncodePointsSharded via
/// CloneEmptyBase/MergeFromBase) ingestion.
class HierarchicalGrid : public MechanismBase {
 public:
  /// Default cap on the summed oracle domains (the memory guard).
  static constexpr uint64_t kDefaultCellBudget = uint64_t{1} << 26;

  /// `max_total_cells` caps the summed oracle domains; over-budget
  /// configurations CHECK-fail (use Create() for a typed error instead).
  HierarchicalGrid(uint64_t domain_per_dim, uint32_t dimensions, double eps,
                   const HierarchicalGridConfig& config,
                   uint64_t max_total_cells = kDefaultCellBudget);

  /// Validating factory: returns nullptr and fills `*error` (when non-null)
  /// instead of crashing when the configuration is invalid or its total
  /// cell count exceeds `max_total_cells` (overflow-safe accounting).
  static std::unique_ptr<HierarchicalGrid> Create(
      uint64_t domain_per_dim, uint32_t dimensions, double eps,
      const HierarchicalGridConfig& config,
      uint64_t max_total_cells = kDefaultCellBudget,
      std::string* error = nullptr);

  uint64_t domain_per_dim() const { return domain_; }
  /// The per-axis B-adic tree (the same on every axis).
  const TreeShape& shape() const { return shape_; }
  /// Level tuples, (h+1)^d, the all-root tuple 0 included.
  uint64_t tuple_count() const { return tuple_count_; }
  /// Total cells across all level tuples (the memory footprint driver).
  uint64_t total_cells() const { return total_cells_; }
  /// The OLH hash range g shared by every tuple grid (kOlh only, else 0).
  uint64_t olh_hash_range() const { return olh_g_; }

  uint32_t dimensions() const override { return dims_; }
  uint64_t user_count() const override { return users_; }
  /// The decode strategy in effect (config request, possibly downgraded
  /// to kEager for non-deferrable oracle kinds).
  GridDecode decode_mode() const {
    return deferred_ ? GridDecode::kDeferred : GridDecode::kEager;
  }
  /// Thread count for Finalize's per-tuple fan-out (0 = one per hardware
  /// core, the default). Estimates are bit-identical for every value.
  void set_finalize_threads(unsigned threads) { finalize_threads_ = threads; }
  /// System allocations ever made by the deferred record columns (flat
  /// across ingest/finalize sessions at steady state; test hook).
  uint64_t record_allocation_count() const {
    return rec_tuples_.allocation_count() + rec_cells_.allocation_count() +
           rec_seeds_.allocation_count();
  }
  std::string Name() const override;
  double ReportBits() const override;
  void EncodePoint(const uint64_t* coords, Rng& rng) override;
  void EncodePoints(std::span<const uint64_t> coords, Rng& rng) override;

  /// Server side of a deferred kOlh grid: records one client-randomized
  /// report — level tuple in [1, tuple_count()), the user's hash seed and
  /// the perturbed cell (< olh_hash_range()) — exactly as EncodePoint
  /// would have after drawing it. The caller validates the report; the
  /// one check here is that this grid is an unfinalized deferred OLH grid.
  void AbsorbOlhReport(uint32_t tuple, uint64_t seed, uint32_t cell) {
    LDP_CHECK_MSG(absorbs_olh_reports_,
                  "AbsorbOlhReport needs an unfinalized deferred OLH grid");
    rec_tuples_.PushBack(tuple);
    rec_cells_.PushBack(cell);
    rec_seeds_.PushBack(seed);
    ++tuple_reports_[tuple];
    ++users_;
  }

  /// The recorded reports of a deferred grid grouped by level tuple:
  /// tuple t's cells (and, for kOlh, seeds) sit at [offset[t],
  /// offset[t + 1]) in arrival order.
  struct TupleRecords {
    std::vector<uint64_t> offset;
    std::vector<uint32_t> cells;
    std::vector<uint64_t> seeds;
  };
  /// One stable counting sort over the record columns (Finalize's
  /// partition step); requires an unfinalized deferred grid.
  TupleRecords RecordsByTuple() const;

  /// A fresh, empty grid with this one's exact configuration.
  std::unique_ptr<HierarchicalGrid> CloneEmpty() const;
  std::unique_ptr<MechanismBase> CloneEmptyBase() const override {
    return CloneEmpty();
  }
  void MergeFromBase(const MechanismBase& other) override;
  void Finalize(Rng& rng) override;
  double BoxQuery(std::span<const AxisInterval> box) const override;
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const override;

  /// The axis-0 marginal box [a, b] x [0, D)^(d-1): how the 1-D range
  /// interfaces view a grid.
  std::vector<AxisInterval> MarginalBox(uint64_t a, uint64_t b) const {
    std::vector<AxisInterval> box(dims_, AxisInterval{0, domain_ - 1});
    box[0] = AxisInterval{a, b};
    return box;
  }

 private:
  void FinalizeEager(Rng& rng);
  void FinalizeDeferred(Rng& rng);

  double EstimateAt(uint64_t tuple, uint64_t cell) const {
    return deferred_ ? flat_estimates_[tuple_offset_[tuple] + cell]
                     : estimates_[tuple][cell];
  }

  uint32_t dims_;
  HierarchicalGridConfig config_;
  TreeShape shape_;  // identical shape in every dimension
  uint64_t max_total_cells_;
  uint64_t tuple_count_;  // (h+1)^d, including the excluded all-zero tuple
  uint64_t total_cells_ = 0;
  bool deferred_ = false;  // resolved decode mode (see GridOracleDeferrable)
  // Deferred kOlh and not finalized: AbsorbOlhReport's one check.
  bool absorbs_olh_reports_ = false;
  unsigned finalize_threads_ = 0;
  uint64_t olh_g_ = 0;  // shared OLH hash range (kOlh only)
  // Product-grid size per tuple (tuple_cells_[0] = 1, the all-root cell).
  std::vector<uint64_t> tuple_cells_;
  // One oracle per level tuple != all-zero; index = little-endian mixed
  // radix over (h+1), dimension 0 least significant. Cells flatten the
  // same way (dimension 0 fastest). Empty in deferred mode — the whole
  // point: no O(total_cells) oracle state exists until Finalize.
  std::vector<std::unique_ptr<FrequencyOracle>> grids_;
  // Deferred-mode record columns, structure-of-arrays on arenas: the
  // sampled tuple, the (client-randomized where applicable) cell, and for
  // kOlh the public hash seed. Identical append schedules keep their chunk
  // boundaries paired.
  ArenaColumn<uint32_t> rec_tuples_;
  ArenaColumn<uint32_t> rec_cells_;
  ArenaColumn<uint64_t> rec_seeds_;
  // Reports per tuple (deferred mode; an eager oracle tracks its own).
  std::vector<uint64_t> tuple_reports_;
  // Post-finalize per-tuple estimator variance (deferred mode's stand-in
  // for FrequencyOracle::EstimatorVariance; +inf for empty tuples).
  std::vector<double> tuple_variance_;
  // Post-finalize estimates. Eager mode keeps the per-tuple vectors the
  // oracles hand back. Deferred mode writes ONE flat buffer (tuple t's
  // cells at [tuple_offset_[t], tuple_offset_[t+1])): a single allocation
  // whose doubles are written exactly once — no per-tuple zero-fill pass
  // over the ~total_cells doubles that the decode immediately overwrites,
  // which is a measurable slice of Finalize at grid scale.
  std::vector<std::vector<double>> estimates_;
  std::unique_ptr<double[]> flat_estimates_;
  std::vector<uint64_t> tuple_offset_;
  uint64_t users_ = 0;
  bool finalized_ = false;
};

/// Two-dimensional convenience wrapper (paper Section 6's d = 2 case):
/// exactly HierarchicalGrid with d = 2 plus (x, y) / rectangle shorthands.
class Hierarchical2D final : public HierarchicalGrid {
 public:
  Hierarchical2D(uint64_t domain_per_dim, double eps,
                 const HierarchicalGridConfig& config)
      : HierarchicalGrid(domain_per_dim, 2, eps, config) {}

  /// Client side: randomize the point (x, y), x, y in [0, D).
  void EncodeUser(uint64_t x, uint64_t y, Rng& rng) {
    const uint64_t point[2] = {x, y};
    EncodePoint(point, rng);
  }

  /// Estimated fraction of users in the rectangle
  /// [ax, bx] x [ay, by] (inclusive).
  double RangeQuery(uint64_t ax, uint64_t bx, uint64_t ay,
                    uint64_t by) const {
    const AxisInterval box[2] = {{ax, bx}, {ay, by}};
    return BoxQuery(box);
  }
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_MULTIDIM_H_
