#include "core/multidim.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "frequency/grr.h"
#include "frequency/olh.h"
#include "frequency/olh_support_scan.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace ldp {

bool GridOracleDeferrable(OracleKind kind) {
  switch (kind) {
    case OracleKind::kOueSimulated:
    case OracleKind::kSueSimulated:
    case OracleKind::kGrr:
    case OracleKind::kOlh:
      return true;
    case OracleKind::kOue:
    case OracleKind::kSue:
    case OracleKind::kHrr:
      return false;
  }
  return false;
}

bool GridCellsWithinBudget(const TreeShape& shape, uint32_t dims,
                           uint64_t budget, uint64_t* total_cells) {
  const uint64_t radix = uint64_t{shape.height()} + 1;
  uint64_t tuple_count = 1;
  for (uint32_t dim = 0; dim < dims; ++dim) {
    if (__builtin_mul_overflow(tuple_count, radix, &tuple_count)) {
      return false;
    }
  }
  // Every non-trivial tuple carries at least fanout >= 2 cells, so more
  // tuples than budget/2 already exceeds the budget; this also bounds the
  // enumeration below.
  if (tuple_count - 1 > budget / 2) return false;
  uint64_t total = 0;
  for (uint64_t t = 1; t < tuple_count; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims; ++dim) {
      uint32_t level = static_cast<uint32_t>(rest % radix);
      rest /= radix;
      if (__builtin_mul_overflow(cells, shape.NodesAtLevel(level), &cells)) {
        return false;
      }
    }
    if (__builtin_add_overflow(total, cells, &total) || total > budget) {
      return false;
    }
  }
  *total_cells = total;
  return true;
}

HierarchicalGrid::HierarchicalGrid(uint64_t domain_per_dim,
                                   uint32_t dimensions, double eps,
                                   const HierarchicalGridConfig& config,
                                   uint64_t max_total_cells)
    : MechanismBase(domain_per_dim, eps),
      dims_(dimensions),
      config_(config),
      shape_(domain_per_dim, config.fanout),
      max_total_cells_(max_total_cells) {
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_MSG(
      GridCellsWithinBudget(shape_, dims_, max_total_cells, &total_cells_),
      "HierarchicalGrid cell budget exceeded; reduce D, d or raise "
      "max_total_cells");
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  tuple_count_ = IntPow(radix, dims_);
  // Enumerate level tuples in mixed radix (h+1)^d, dimension 0 least
  // significant; tuple index 0 is the all-root cell (known exactly, no
  // oracle).
  tuple_cells_.assign(tuple_count_, 1);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      cells *= shape_.NodesAtLevel(static_cast<uint32_t>(rest % radix));
      rest /= radix;
    }
    tuple_cells_[t] = cells;
  }
  deferred_ = config_.decode == GridDecode::kDeferred &&
              GridOracleDeferrable(config_.oracle);
  if (config_.oracle == OracleKind::kOlh) {
    olh_g_ = OlhOptimalHashRange(eps_);
  }
  absorbs_olh_reports_ = deferred_ && config_.oracle == OracleKind::kOlh;
  if (deferred_) {
    // No oracles: ingestion records into the arena columns and Finalize
    // decodes straight into estimates_. The record format needs tuple and
    // cell to fit u32; both are bounded by the cell budget (<= 2^26).
    LDP_CHECK_LE(tuple_count_, uint64_t{1} << 32);
    tuple_reports_.assign(tuple_count_, 0);
  } else {
    grids_.resize(tuple_count_);
    for (uint64_t t = 1; t < tuple_count_; ++t) {
      grids_[t] = MakeOracle(config_.oracle, tuple_cells_[t], eps_);
    }
  }
}

std::unique_ptr<HierarchicalGrid> HierarchicalGrid::Create(
    uint64_t domain_per_dim, uint32_t dimensions, double eps,
    const HierarchicalGridConfig& config, uint64_t max_total_cells,
    std::string* error) {
  auto fail = [&](const char* message) -> std::unique_ptr<HierarchicalGrid> {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (domain_per_dim < 2) return fail("domain_per_dim must be >= 2");
  if (dimensions < 1) return fail("dimensions must be >= 1");
  if (!(eps > 0.0)) return fail("epsilon must be positive");
  if (config.fanout < 2) return fail("fanout must be >= 2");
  TreeShape shape(domain_per_dim, config.fanout);
  uint64_t total = 0;
  if (!GridCellsWithinBudget(shape, dimensions, max_total_cells, &total)) {
    return fail(
        "cell budget exceeded: the (h+1)^d level-tuple grids need more "
        "cells than max_total_cells; reduce D, d or raise max_total_cells");
  }
  return std::make_unique<HierarchicalGrid>(domain_per_dim, dimensions, eps,
                                            config, max_total_cells);
}

std::string HierarchicalGrid::Name() const {
  std::string name = "HH";
  name += std::to_string(dims_);
  name += "D";
  name += std::to_string(config_.fanout);
  name += "-";
  name += OracleKindName(config_.oracle);
  return name;
}

double HierarchicalGrid::ReportBits() const {
  // A user reports their sampled level tuple plus one oracle report for
  // that tuple's grid; tuples are sampled uniformly. Deferred mode has no
  // oracle objects, so the per-kind report size is computed analytically
  // (matching the corresponding oracle's ReportBits exactly).
  double bits = 0.0;
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    if (!deferred_) {
      bits += grids_[t]->ReportBits();
      continue;
    }
    switch (config_.oracle) {
      case OracleKind::kOueSimulated:
      case OracleKind::kSueSimulated:
        bits += static_cast<double>(tuple_cells_[t]);
        break;
      case OracleKind::kGrr:
        bits += static_cast<double>(Log2Ceil(tuple_cells_[t]));
        break;
      case OracleKind::kOlh:
        bits += 64.0 + static_cast<double>(Log2Ceil(olh_g_));
        break;
      default:
        LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
    }
  }
  double tuple_id_bits = static_cast<double>(Log2Ceil(tuple_count_ - 1));
  return tuple_id_bits + bits / static_cast<double>(tuple_count_ - 1);
}

void HierarchicalGrid::EncodePoint(const uint64_t* coords, Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodePoint after Finalize");
  const GridCellDraw draw =
      DrawGridCell(shape_, dims_, tuple_count_, coords, rng);
  const uint64_t tuple = draw.tuple;
  uint64_t cell = draw.cell;
  if (!deferred_) {
    grids_[tuple]->SubmitValue(cell, rng);
    ++users_;
    return;
  }
  // Deferred: perform the oracle's CLIENT-side randomization now (drawing
  // from `rng` exactly as SubmitValue would, so both modes consume one
  // identical stream) and append the compact record; the aggregate-side
  // decode runs once, at Finalize.
  switch (config_.oracle) {
    case OracleKind::kOueSimulated:
    case OracleKind::kSueSimulated:
      // The §5 simulated paths draw no per-user randomness.
      break;
    case OracleKind::kGrr:
      cell = GrrPerturb(cell, tuple_cells_[tuple], eps_, rng);
      break;
    case OracleKind::kOlh: {
      uint64_t seed = rng.Next();
      uint64_t h = SeededHash(seed, cell, olh_g_);
      cell = GrrPerturb(h, olh_g_, eps_, rng);
      rec_seeds_.PushBack(seed);
      break;
    }
    default:
      LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
  }
  rec_tuples_.PushBack(static_cast<uint32_t>(tuple));
  rec_cells_.PushBack(static_cast<uint32_t>(cell));
  ++tuple_reports_[tuple];
  ++users_;
}

void HierarchicalGrid::EncodePoints(std::span<const uint64_t> coords,
                                    Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodePoints after Finalize");
  LDP_CHECK_EQ(coords.size() % dims_, size_t{0});
  // Same draw order as the EncodePoint loop (tuple pick, then submit).
  for (size_t i = 0; i < coords.size(); i += dims_) {
    EncodePoint(coords.data() + i, rng);
  }
}

std::unique_ptr<HierarchicalGrid> HierarchicalGrid::CloneEmpty() const {
  return std::make_unique<HierarchicalGrid>(domain_, dims_, eps_, config_,
                                            max_total_cells_);
}

void HierarchicalGrid::MergeFromBase(const MechanismBase& other) {
  const auto* o = dynamic_cast<const HierarchicalGrid*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFromBase requires a HierarchicalGrid");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  LDP_CHECK(o->domain_ == domain_);
  LDP_CHECK(o->dims_ == dims_);
  LDP_CHECK(o->config_.fanout == config_.fanout);
  LDP_CHECK(o->config_.oracle == config_.oracle);
  LDP_CHECK(o->deferred_ == deferred_);
  if (deferred_) {
    // O(1) in the record count: the columns adopt the shard's arena
    // blocks. This consumes the shard's records — allowed by the sharding
    // contract (a merged shard is discarded, exactly like OlhOracle's
    // pending queue).
    auto* shard = const_cast<HierarchicalGrid*>(o);
    rec_tuples_.Adopt(std::move(shard->rec_tuples_));
    rec_cells_.Adopt(std::move(shard->rec_cells_));
    rec_seeds_.Adopt(std::move(shard->rec_seeds_));
    for (uint64_t t = 1; t < tuple_count_; ++t) {
      tuple_reports_[t] += o->tuple_reports_[t];
    }
  } else {
    for (uint64_t t = 1; t < tuple_count_; ++t) {
      grids_[t]->MergeFrom(*o->grids_[t]);
    }
  }
  users_ += o->users_;
}

void HierarchicalGrid::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  if (deferred_) {
    FinalizeDeferred(rng);
  } else {
    FinalizeEager(rng);
  }
  finalized_ = true;
  absorbs_olh_reports_ = false;
}

void HierarchicalGrid::FinalizeEager(Rng& rng) {
  estimates_.resize(tuple_count_);
  estimates_[0] = {1.0};  // the all-root cell
  // Fork one decode stream per tuple, in tuple order — the SAME forking
  // discipline as the deferred path, which is what makes the two modes
  // bit-identical: tuple t's noise comes from Rng(seeds[t]) regardless of
  // mode, thread count, or which worker runs it.
  std::vector<uint64_t> seeds(tuple_count_, 0);
  for (uint64_t t = 1; t < tuple_count_; ++t) seeds[t] = rng.Next();
  const uint64_t tuples = tuple_count_ - 1;
  unsigned threads =
      finalize_threads_ != 0 ? finalize_threads_ : HardwareThreads();
  ParallelFor(tuples, threads, [&](unsigned, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = i + 1;
      // OLH oracles would otherwise fan out their own decode inside this
      // already-parallel loop; keep each tuple's scan on its worker.
      if (auto* olh = dynamic_cast<OlhOracle*>(grids_[t].get())) {
        olh->set_decode_threads(1);
      }
      Rng tuple_rng(seeds[t]);
      grids_[t]->Finalize(tuple_rng);
      estimates_[t] = grids_[t]->EstimateFractions();
    }
  });
}

void HierarchicalGrid::FinalizeDeferred(Rng& rng) {
  // Global-registry timing: the deferred decode is the grid's dominant
  // finalize cost and the subject of the CI perf gate.
  static obs::LatencyHistogram* const scan_ns =
      &obs::MetricsRegistry::Global().GetHistogram("grid.deferred_scan_ns");
  obs::ScopedTimer scan_timer(scan_ns, "grid.deferred_scan");
  // One flat, write-once estimate buffer (see the member comment): offsets
  // are prefix sums of the per-tuple cell counts, the all-root cell sits
  // at slot 0.
  tuple_offset_.assign(tuple_count_ + 1, 0);
  for (uint64_t t = 0; t < tuple_count_; ++t) {
    tuple_offset_[t + 1] = tuple_offset_[t] + tuple_cells_[t];
  }
  flat_estimates_.reset(new double[tuple_offset_[tuple_count_]]);
  flat_estimates_[0] = 1.0;
  tuple_variance_.assign(tuple_count_, 0.0);
  // Identical stream forking as FinalizeEager (see comment there).
  std::vector<uint64_t> seeds(tuple_count_, 0);
  for (uint64_t t = 1; t < tuple_count_; ++t) seeds[t] = rng.Next();

  // Partition the records by tuple: after this every tuple's cells (and
  // seeds, for OLH) sit in one contiguous slice, so the per-tuple decode
  // below is a single linear scan.
  const TupleRecords records = RecordsByTuple();
  const std::vector<uint64_t>& rec_offset = records.offset;

  // One decode per tuple, sharded over tuples: histogram (or support-scan)
  // the tuple's slice, then fuse the aggregate noise draw with the
  // debiased estimate — arithmetic identical to the corresponding
  // oracle's Finalize + EstimateFractions. Per-tuple Rng(seeds[t]) makes
  // the result independent of the sharding.
  const uint64_t tuples = tuple_count_ - 1;
  unsigned threads =
      finalize_threads_ != 0 ? finalize_threads_ : HardwareThreads();
  ParallelFor(tuples, threads, [&](unsigned, uint64_t begin, uint64_t end) {
    // Per-worker count scratch, reused across the worker's tuples and
    // first-touched here (NUMA: pages live on the node that scans them).
    std::vector<uint64_t> counts;
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = i + 1;
      const uint64_t cells_t = tuple_cells_[t];
      const uint64_t n_t = tuple_reports_[t];
      double* const est = flat_estimates_.get() + tuple_offset_[t];
      if (n_t == 0) {
        // An empty oracle estimates all zeros with infinite variance.
        std::fill(est, est + cells_t, 0.0);
        tuple_variance_[t] = std::numeric_limits<double>::infinity();
        continue;
      }
      const uint32_t* slice = records.cells.data() + rec_offset[t];
      const double dn = static_cast<double>(n_t);
      Rng tuple_rng(seeds[t]);
      switch (config_.oracle) {
        case OracleKind::kOueSimulated: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          const OueAggregateNoiser noiser(n_t, eps_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = noiser.Estimate(noiser.NoisyCount(counts[j], tuple_rng));
          }
          tuple_variance_[t] = OracleVariance(eps_, dn);
          break;
        }
        case OracleKind::kSueSimulated: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          const SueAggregateNoiser noiser(n_t, eps_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = noiser.Estimate(noiser.NoisyCount(counts[j], tuple_rng));
          }
          tuple_variance_[t] = SueVariance(eps_, dn);
          break;
        }
        case OracleKind::kGrr: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          // Expression-for-expression GrrDebias (frequency/grr.cc), writing
          // into the flat buffer instead of a returned vector.
          const double p = GrrTruthProbability(cells_t, eps_);
          const double q = (1.0 - p) / (static_cast<double>(cells_t) - 1.0);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = (static_cast<double>(counts[j]) / dn - q) / (p - q);
          }
          tuple_variance_[t] = GrrLowFrequencyVariance(cells_t, eps_, n_t);
          break;
        }
        case OracleKind::kOlh: {
          counts.assign(cells_t, 0);
          OlhAccumulateSupport(records.seeds.data() + rec_offset[t], slice,
                               n_t, olh_g_, cells_t, counts.data());
          const double p = GrrTruthProbability(olh_g_, eps_);
          const double q = 1.0 / static_cast<double>(olh_g_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = (static_cast<double>(counts[j]) / dn - q) / (p - q);
          }
          tuple_variance_[t] = q * (1.0 - q) / (dn * (p - q) * (p - q));
          break;
        }
        default:
          LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
      }
    }
  });
  // Retain the arena blocks: a reused mechanism (or the next session on a
  // merged aggregate) refills them without new system allocations.
  rec_tuples_.Clear();
  rec_cells_.Clear();
  rec_seeds_.Clear();
}

HierarchicalGrid::TupleRecords HierarchicalGrid::RecordsByTuple() const {
  LDP_CHECK_MSG(deferred_ && !finalized_,
                "RecordsByTuple needs an unfinalized deferred grid");
  // Counting sort off the per-tuple report totals kept at ingest; stable,
  // so each tuple's slice keeps arrival order.
  const uint64_t n_records = rec_tuples_.size();
  LDP_CHECK(rec_cells_.size() == n_records);
  const bool olh = config_.oracle == OracleKind::kOlh;
  TupleRecords records;
  records.offset.assign(tuple_count_ + 1, 0);
  for (uint64_t t = 0; t < tuple_count_; ++t) {
    records.offset[t + 1] = records.offset[t] + tuple_reports_[t];
  }
  LDP_CHECK(records.offset[tuple_count_] == n_records);
  records.cells.resize(n_records);
  records.seeds.resize(olh ? n_records : 0);
  std::vector<uint64_t> cursor(records.offset.begin(),
                               records.offset.end() - 1);
  const auto tuple_chunks = rec_tuples_.Chunks();
  const auto cell_chunks = rec_cells_.Chunks();
  const auto seed_chunks = rec_seeds_.Chunks();
  LDP_CHECK(cell_chunks.size() == tuple_chunks.size());
  LDP_CHECK(!olh || seed_chunks.size() == tuple_chunks.size());
  for (size_t s = 0; s < tuple_chunks.size(); ++s) {
    const uint32_t* tuples = tuple_chunks[s].data;
    const uint32_t* cells = cell_chunks[s].data;
    const uint64_t* sds = olh ? seed_chunks[s].data : nullptr;
    LDP_CHECK(cell_chunks[s].size == tuple_chunks[s].size);
    for (uint64_t i = 0; i < tuple_chunks[s].size; ++i) {
      const uint64_t pos = cursor[tuples[i]]++;
      records.cells[pos] = cells[i];
      if (olh) records.seeds[pos] = sds[i];
    }
  }
  return records;
}

double HierarchicalGrid::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  double total = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += EstimateAt(tuple, cell);
  });
  return total;
}

RangeEstimate HierarchicalGrid::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  // Sum the per-cell estimator variances of the cross-product assembly
  // (the Section 6 analogue of Theorem 4.3's accounting); the all-root
  // cell is known exactly.
  double total = 0.0;
  double variance = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += EstimateAt(tuple, cell);
    if (tuple != 0) {
      variance += deferred_ ? tuple_variance_[tuple]
                            : grids_[tuple]->EstimatorVariance();
    }
  });
  return RangeEstimate{total, std::sqrt(variance)};
}

}  // namespace ldp
