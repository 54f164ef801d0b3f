#include "protocol/multidim_protocol.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "protocol/oracle_wire.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

// Chunked deterministic parallel encode, mirroring the kEncodeChunk /
// ChunkSeed scheme of core/range_mechanism.cc: every chunk draws from its
// own seed-derived Rng into its own output slots, so the result cannot
// depend on how chunks land on workers.
constexpr uint64_t kEncodeChunk = uint64_t{1} << 14;

uint64_t ChunkSeed(uint64_t seed, uint64_t chunk) {
  return Mix64(seed + 0x9E3779B97F4A7C15ULL * (chunk + 1));
}

}  // namespace

MultiDimClient::MultiDimClient(uint64_t domain_per_dim, uint32_t dimensions,
                               double eps, uint64_t fanout)
    : dims_(dimensions),
      eps_(eps),
      shape_(domain_per_dim, fanout),
      g_(OlhOptimalHashRange(eps)) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_LE(dims_, kMaxWireDimensions);
  LDP_CHECK_LE(shape_.height(), 255u);  // levels travel as u8
  uint64_t total = 0;
  LDP_CHECK_MSG(GridCellsWithinBudget(shape_, dims_,
                                      HierarchicalGrid::kDefaultCellBudget,
                                      &total),
                "multidim grid cell budget exceeded; reduce D or d");
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  tuple_count_ = IntPow(radix, dims_);
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
}

MultiDimReport MultiDimClient::Encode(const uint64_t* coords,
                                      Rng& rng) const {
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    LDP_CHECK_LT(coords[dim], shape_.domain());
  }
  // Uniform level tuple skipping the all-root tuple 0, then the OLH
  // randomizer for that tuple's grid — the same draw order as
  // HierarchicalGrid::EncodePoint (tuple pick, then oracle).
  uint64_t tuple = 1 + rng.UniformInt(tuple_count_ - 1);
  MultiDimReport report;
  report.levels.resize(dims_);
  uint64_t rest = tuple;
  uint64_t cell = 0;
  uint64_t cell_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    uint32_t level = static_cast<uint32_t>(rest % radix);
    rest /= radix;
    report.levels[dim] = static_cast<uint8_t>(level);
    cell += shape_.NodeContaining(level, coords[dim]) * cell_stride;
    cell_stride *= shape_.NodesAtLevel(level);
  }
  OlhWireReport olh =
      EncodeOlhReport(tuple_cells_[tuple], eps_, cell, rng, g_);
  report.seed = olh.seed;
  report.cell = static_cast<uint32_t>(olh.cell);
  return report;
}

std::vector<uint8_t> MultiDimClient::EncodeSerialized(const uint64_t* coords,
                                                      Rng& rng) const {
  return SerializeReport(MultiDimLayout{dims_}, Encode(coords, rng));
}

std::vector<MultiDimReport> MultiDimClient::EncodeUsers(
    std::span<const uint64_t> coords, Rng& rng) const {
  LDP_CHECK_EQ(coords.size() % dims_, size_t{0});
  std::vector<MultiDimReport> reports;
  reports.reserve(coords.size() / dims_);
  for (size_t i = 0; i < coords.size(); i += dims_) {
    reports.push_back(Encode(coords.data() + i, rng));
  }
  return reports;
}

std::vector<uint8_t> MultiDimClient::EncodeUsersSerialized(
    std::span<const uint64_t> coords, Rng& rng) const {
  return SerializeReportBatch(MultiDimLayout{dims_}, EncodeUsers(coords, rng));
}

std::vector<MultiDimReport> MultiDimClient::EncodeUsersSharded(
    std::span<const uint64_t> coords, uint64_t seed,
    unsigned threads) const {
  LDP_CHECK_EQ(coords.size() % dims_, size_t{0});
  const uint64_t n = coords.size() / dims_;
  std::vector<MultiDimReport> reports(n);
  if (n == 0) return reports;
  if (threads == 0) threads = HardwareThreads();
  const uint64_t num_chunks = (n + kEncodeChunk - 1) / kEncodeChunk;
  auto encode_chunk = [&](uint64_t chunk) {
    Rng rng(ChunkSeed(seed, chunk));
    const uint64_t begin = chunk * kEncodeChunk;
    const uint64_t end = std::min(n, begin + kEncodeChunk);
    for (uint64_t i = begin; i < end; ++i) {
      reports[i] = Encode(coords.data() + i * dims_, rng);
    }
  };
  if (threads <= 1 || num_chunks == 1) {
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
      encode_chunk(chunk);
    }
  } else {
    ParallelFor(num_chunks, threads,
                [&](unsigned, uint64_t begin, uint64_t end) {
                  for (uint64_t chunk = begin; chunk < end; ++chunk) {
                    encode_chunk(chunk);
                  }
                });
  }
  return reports;
}

MultiDimServer::MultiDimServer(uint64_t domain_per_dim, uint32_t dimensions,
                               double eps, uint64_t fanout,
                               uint64_t max_total_cells)
    : dims_(dimensions),
      eps_(eps),
      shape_(domain_per_dim, fanout),
      g_(OlhOptimalHashRange(eps)),
      max_total_cells_(max_total_cells) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_LE(dims_, kMaxWireDimensions);
  LDP_CHECK_LE(shape_.height(), 255u);
  uint64_t total = 0;
  LDP_CHECK_MSG(
      GridCellsWithinBudget(shape_, dims_, max_total_cells, &total),
      "MultiDimServer cell budget exceeded; reduce D, d or raise "
      "max_total_cells");
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  tuple_count_ = IntPow(radix, dims_);
  oracles_.resize(tuple_count_);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      cells *= shape_.NodesAtLevel(static_cast<uint32_t>(rest % radix));
      rest /= radix;
    }
    oracles_[t] =
        std::make_unique<OlhOracle>(cells, eps, g_, OlhDecode::kDeferred);
  }
}

std::string MultiDimServer::Name() const {
  return "MultiDim" + std::to_string(dims_) + "D";
}

uint64_t MultiDimServer::report_allocation_count() const {
  uint64_t total = 0;
  for (const auto& oracle : oracles_) {
    if (oracle != nullptr) total += oracle->pending_allocation_count();
  }
  return total;
}

bool MultiDimServer::Accept(const MultiDimReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  if (report.levels.size() != dims_ || report.cell >= g_) return false;
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  uint64_t tuple = 0;
  uint64_t tuple_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    const uint8_t level = report.levels[dim];
    if (level > shape_.height()) return false;
    tuple += uint64_t{level} * tuple_stride;
    tuple_stride *= radix;
  }
  // The all-root tuple carries no oracle report.
  if (tuple == 0) return false;
  oracles_[tuple]->AbsorbReport(report.seed, report.cell);
  return true;
}

void MultiDimServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [tuples varint][per non-trivial tuple (t = 1..): OlhOracle record].
  AppendVarU64(out, tuple_count_);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    oracles_[t]->AppendState(out);
  }
}

bool MultiDimServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t tuples = 0;
  if (!reader.ReadVarU64(&tuples)) return false;
  // Cross-check against this server's own grid family, never an
  // allocation size.
  if (tuples != tuple_count_) return false;
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    if (!oracles_[t]->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> MultiDimServer::DoCloneEmpty()
    const {
  return std::make_unique<MultiDimServer>(shape_.domain(), dims_, eps_,
                                          shape_.fanout(), max_total_cells_);
}

service::MergeStatus MultiDimServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<MultiDimServer&>(other);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    oracles_[t]->MergeFrom(*o.oracles_[t]);
  }
  return service::MergeStatus::kOk;
}

void MultiDimServer::DoFinalize() {
  estimates_.assign(tuple_count_, {});
  estimates_[0] = {1.0};  // the all-root cell is the whole space
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    estimates_[t] = oracles_[t]->EstimateFractions();
  }
}

double MultiDimServer::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  double total = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += estimates_[tuple][cell];
  });
  return total;
}

RangeEstimate MultiDimServer::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  double total = 0.0;
  double variance = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += estimates_[tuple][cell];
    if (tuple != 0) variance += oracles_[tuple]->EstimatorVariance();
  });
  return RangeEstimate{total, std::sqrt(variance)};
}

double MultiDimServer::RangeQuery(uint64_t a, uint64_t b) const {
  std::vector<AxisInterval> box(dims_,
                                AxisInterval{0, shape_.domain() - 1});
  box[0] = AxisInterval{a, b};
  return BoxQuery(box);
}

RangeEstimate MultiDimServer::RangeQueryWithUncertainty(uint64_t a,
                                                        uint64_t b) const {
  std::vector<AxisInterval> box(dims_,
                                AxisInterval{0, shape_.domain() - 1});
  box[0] = AxisInterval{a, b};
  return BoxQueryWithUncertainty(box);
}

std::vector<double> MultiDimServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  std::vector<double> est(shape_.domain(), 0.0);
  for (uint64_t z = 0; z < shape_.domain(); ++z) {
    est[z] = RangeQuery(z, z);
  }
  return est;
}

}  // namespace ldp::protocol
