#include "protocol/multidim_protocol.h"

#include <algorithm>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "frequency/olh.h"
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
  tuple_count_ = IntPow(uint64_t{shape_.height()} + 1, dims_);
}

MultiDimReport MultiDimClient::Encode(const uint64_t* coords,
                                      Rng& rng) const {
  // The tuple pick and cell, then the OLH randomizer for that tuple's
  // grid — the same draws as HierarchicalGrid::EncodePoint.
  MultiDimReport report;
  report.levels.resize(dims_);
  const GridCellDraw draw = DrawGridCell(shape_, dims_, tuple_count_, coords,
                                         rng, &report.levels[0]);
  OlhWireReport olh = EncodeOlhReport(draw.cells, eps_, draw.cell, rng, g_);
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
    : MultiDimServer(std::make_unique<HierarchicalGrid>(
          domain_per_dim, dimensions, eps,
          HierarchicalGridConfig{fanout, OracleKind::kOlh,
                                 GridDecode::kDeferred},
          max_total_cells)) {}

MultiDimServer::MultiDimServer(std::unique_ptr<HierarchicalGrid> grid)
    : grid_(std::move(grid)),
      dims_(grid_->dimensions()),
      height_(grid_->shape().height()),
      g_(grid_->olh_hash_range()) {
  LDP_CHECK_LE(dims_, kMaxWireDimensions);
  LDP_CHECK_LE(height_, 255u);  // levels travel as u8
}

std::string MultiDimServer::Name() const {
  return "MultiDim" + std::to_string(dims_) + "D";
}

void MultiDimServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [tuples varint], then per non-trivial tuple (t = 1..) the record of
  // an undecoded OLH oracle: [reports varint][decoded u8 = 0]
  // [pending varint = reports][pending x (seed u64, cell u32)], in
  // arrival order.
  const HierarchicalGrid::TupleRecords records = grid_->RecordsByTuple();
  const uint64_t tuples = grid_->tuple_count();
  AppendVarU64(out, tuples);
  for (uint64_t t = 1; t < tuples; ++t) {
    const uint64_t begin = records.offset[t];
    const uint64_t end = records.offset[t + 1];
    AppendVarU64(out, end - begin);
    AppendU8(out, 0);
    AppendVarU64(out, end - begin);
    for (uint64_t r = begin; r < end; ++r) {
      AppendU64(out, records.seeds[r]);
      AppendU32(out, records.cells[r]);
    }
  }
}

bool MultiDimServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t tuples = 0;
  if (!reader.ReadVarU64(&tuples)) return false;
  // Cross-check against this server's own grid family, never an
  // allocation size.
  if (tuples != grid_->tuple_count()) return false;
  for (uint64_t t = 1; t < tuples; ++t) {
    uint64_t reports = 0;
    uint8_t decoded = 0;
    uint64_t pending = 0;
    // An unfinalized server never decodes, so every record it writes has
    // decoded = 0 and all its reports pending.
    if (!reader.ReadVarU64(&reports) || !reader.ReadU8(&decoded) ||
        decoded != 0 || !reader.ReadVarU64(&pending) || pending != reports) {
      return false;
    }
    // Floor check: each report costs 12 bytes on the wire, so a forged
    // count beyond what the buffer holds fails before any append drives
    // allocation. (Division avoids overflow on adversarial counts.)
    if (pending > reader.Remaining() / 12) return false;
    for (uint64_t i = 0; i < pending; ++i) {
      uint64_t seed = 0;
      uint32_t cell = 0;
      if (!reader.ReadU64(&seed) || !reader.ReadU32(&cell)) return false;
      if (cell >= g_) return false;
      grid_->AbsorbOlhReport(static_cast<uint32_t>(t), seed, cell);
    }
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> MultiDimServer::DoCloneEmpty()
    const {
  return std::unique_ptr<MultiDimServer>(
      new MultiDimServer(grid_->CloneEmpty()));
}

service::MergeStatus MultiDimServer::DoMergeFrom(
    service::AggregatorServer& other) {
  grid_->MergeFromBase(*static_cast<MultiDimServer&>(other).grid_);
  return service::MergeStatus::kOk;
}

void MultiDimServer::DoFinalize() {
  // The OLH decode draws no noise; the grid only forks this stream.
  Rng rng(0);
  grid_->Finalize(rng);
}

double MultiDimServer::RangeQuery(uint64_t a, uint64_t b) const {
  return BoxQuery(grid_->MarginalBox(a, b));
}

RangeEstimate MultiDimServer::RangeQueryWithUncertainty(uint64_t a,
                                                        uint64_t b) const {
  return BoxQueryWithUncertainty(grid_->MarginalBox(a, b));
}

std::vector<double> MultiDimServer::EstimateFrequencies() const {
  std::vector<double> est(domain(), 0.0);
  for (uint64_t z = 0; z < domain(); ++z) {
    est[z] = RangeQuery(z, z);
  }
  return est;
}

}  // namespace ldp::protocol
