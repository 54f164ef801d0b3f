// The Section 6 question in microbenchmark form: what does answering
// rectangle queries with the 2-D hierarchical grid cost — and buy —
// versus the naive product-of-1-D baseline (split the population across
// two independent 1-D hierarchies, one per axis, and estimate each
// rectangle as the product of its marginals)?
//
// The two error sources are different in kind, and the counters keep
// them apart. The grid is unbiased but pays the paper's log^{2d} D
// variance — at D = 2^10 per axis and quick-scale n its `mse` is all
// variance, shrinking as 1/n. The baseline is cheap and low-variance but
// its independence assumption is wrong whenever the axes are correlated:
// its `bias_floor_mse` (product of the EXACT marginals vs truth, no LDP
// noise at all) is the error it keeps at any population size. On the
// diagonally-correlated workload here the baseline wins at quick scale;
// the floor is where the grid overtakes it as n grows. Timing cases
// cover ingest + finalize and per-rectangle query cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/hierarchical.h"
#include "core/multidim.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr uint64_t kAxisDomain = 1 << 10;
constexpr double kEps = 1.0;
constexpr uint64_t kUsers = 100000;
constexpr int kRectangles = 200;

HierarchicalGridConfig GridConfig() {
  HierarchicalGridConfig config;
  config.fanout = 2;
  return config;
}

HierarchicalConfig AxisConfig() {
  HierarchicalConfig config;
  config.fanout = 2;
  return config;
}

// Diagonally-correlated points: x uniform, y within a narrow band of x.
// The grid sees the joint distribution; product-of-marginals sees two
// nearly-uniform axes and misses the correlation entirely.
const std::vector<uint64_t>& Points() {
  static const std::vector<uint64_t> points = [] {
    std::vector<uint64_t> out;
    out.reserve(2 * kUsers);
    Rng rng(42);
    for (uint64_t i = 0; i < kUsers; ++i) {
      uint64_t x = rng.UniformInt(kAxisDomain);
      uint64_t offset = rng.UniformInt(64);
      uint64_t y = std::min(x + offset, kAxisDomain - 1);
      out.push_back(x);
      out.push_back(y);
    }
    return out;
  }();
  return points;
}

struct Rect {
  uint64_t ax, bx, ay, by;
};

const std::vector<Rect>& Rectangles() {
  static const std::vector<Rect> rects = [] {
    std::vector<Rect> out;
    Rng rng(7);
    for (int i = 0; i < kRectangles; ++i) {
      uint64_t ax = rng.UniformInt(kAxisDomain);
      uint64_t bx = ax + rng.UniformInt(kAxisDomain - ax);
      uint64_t ay = rng.UniformInt(kAxisDomain);
      uint64_t by = ay + rng.UniformInt(kAxisDomain - ay);
      out.push_back({ax, bx, ay, by});
    }
    return out;
  }();
  return rects;
}

const std::vector<double>& Truth() {
  static const std::vector<double> truth = [] {
    const std::vector<uint64_t>& points = Points();
    std::vector<double> out;
    out.reserve(Rectangles().size());
    for (const Rect& r : Rectangles()) {
      uint64_t count = 0;
      for (size_t i = 0; i < points.size(); i += 2) {
        if (points[i] >= r.ax && points[i] <= r.bx &&
            points[i + 1] >= r.ay && points[i + 1] <= r.by) {
          ++count;
        }
      }
      out.push_back(static_cast<double>(count) / kUsers);
    }
    return out;
  }();
  return truth;
}

std::unique_ptr<Hierarchical2D> BuildGrid(
    GridDecode decode = GridDecode::kDeferred) {
  HierarchicalGridConfig config = GridConfig();
  config.decode = decode;
  auto grid = std::make_unique<Hierarchical2D>(kAxisDomain, kEps, config);
  Rng rng(11);
  grid->EncodePoints(Points(), rng);
  Rng fin(13);
  grid->Finalize(fin);
  return grid;
}

// The naive baseline: the population is split in half, each half reports
// one coordinate through an independent 1-D hierarchy at the same eps,
// and a rectangle is estimated as the product of the two marginals.
struct ProductBaseline {
  HierarchicalMechanism x;
  HierarchicalMechanism y;

  ProductBaseline()
      : x(kAxisDomain, kEps, AxisConfig()),
        y(kAxisDomain, kEps, AxisConfig()) {
    const std::vector<uint64_t>& points = Points();
    Rng rng(11);
    for (size_t i = 0; i < points.size(); i += 2) {
      if ((i / 2) % 2 == 0) {
        x.EncodeUser(points[i], rng);
      } else {
        y.EncodeUser(points[i + 1], rng);
      }
    }
    Rng fin(13);
    x.Finalize(fin);
    y.Finalize(fin);
  }

  double Query(const Rect& r) const {
    return x.RangeQuery(r.ax, r.bx) * y.RangeQuery(r.ay, r.by);
  }
};

double Mse(const std::vector<double>& estimates) {
  const std::vector<double>& truth = Truth();
  double sum = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double err = estimates[i] - truth[i];
    sum += err * err;
  }
  return sum / static_cast<double>(truth.size());
}

// The baseline's irreducible error: product of the exact (noise-free)
// marginals vs the joint truth — what remains when n -> infinity.
double BiasFloorMse() {
  const std::vector<uint64_t>& points = Points();
  std::vector<double> estimates;
  estimates.reserve(Rectangles().size());
  for (const Rect& r : Rectangles()) {
    uint64_t in_x = 0;
    uint64_t in_y = 0;
    for (size_t i = 0; i < points.size(); i += 2) {
      in_x += points[i] >= r.ax && points[i] <= r.bx;
      in_y += points[i + 1] >= r.ay && points[i + 1] <= r.by;
    }
    estimates.push_back(static_cast<double>(in_x) *
                        static_cast<double>(in_y) /
                        (static_cast<double>(kUsers) * kUsers));
  }
  return Mse(estimates);
}

void BM_GridIngestFinalize(benchmark::State& state) {
  for (auto _ : state) {
    auto grid = BuildGrid();
    benchmark::DoNotOptimize(grid.get());
  }
  state.SetItemsProcessed(state.iterations() * kUsers);
}
BENCHMARK(BM_GridIngestFinalize)->Unit(benchmark::kMillisecond);

// The eager baseline (one oracle update per report at ingest), kept
// benchmarked so the decode-strategy gap stays measured (bit-identical
// estimates; see multidim_test). It is also the same-run reference of
// the CI grid gate, which requires deferred <= 0.9x eager.
void BM_GridIngestFinalizeEager(benchmark::State& state) {
  for (auto _ : state) {
    auto grid = BuildGrid(GridDecode::kEager);
    benchmark::DoNotOptimize(grid.get());
  }
  state.SetItemsProcessed(state.iterations() * kUsers);
}
BENCHMARK(BM_GridIngestFinalizeEager)->Unit(benchmark::kMillisecond);

void BM_ProductIngestFinalize(benchmark::State& state) {
  for (auto _ : state) {
    ProductBaseline baseline;
    benchmark::DoNotOptimize(&baseline);
  }
  state.SetItemsProcessed(state.iterations() * kUsers);
}
BENCHMARK(BM_ProductIngestFinalize)->Unit(benchmark::kMillisecond);

void BM_GridRectangleQuery(benchmark::State& state) {
  auto grid = BuildGrid();
  std::vector<double> estimates(Rectangles().size(), 0.0);
  for (auto _ : state) {
    for (size_t i = 0; i < Rectangles().size(); ++i) {
      const Rect& r = Rectangles()[i];
      estimates[i] = grid->RangeQuery(r.ax, r.bx, r.ay, r.by);
    }
    benchmark::DoNotOptimize(estimates.data());
  }
  state.SetItemsProcessed(state.iterations() * Rectangles().size());
  state.counters["mse"] = Mse(estimates);
}
BENCHMARK(BM_GridRectangleQuery)->Unit(benchmark::kMicrosecond);

void BM_ProductRectangleQuery(benchmark::State& state) {
  ProductBaseline baseline;
  std::vector<double> estimates(Rectangles().size(), 0.0);
  for (auto _ : state) {
    for (size_t i = 0; i < Rectangles().size(); ++i) {
      estimates[i] = baseline.Query(Rectangles()[i]);
    }
    benchmark::DoNotOptimize(estimates.data());
  }
  state.SetItemsProcessed(state.iterations() * Rectangles().size());
  state.counters["mse"] = Mse(estimates);
  state.counters["bias_floor_mse"] = BiasFloorMse();
}
BENCHMARK(BM_ProductRectangleQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
