#include "core/method.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "core/flat.h"
#include "core/haar_hrr.h"
#include "core/hierarchical.h"
#include "core/multidim.h"

namespace ldp {

namespace {

// Axis-0 marginal view of a d-dimensional grid: 1-D values embed as points
// (v, 0, ..., 0) and intervals [a, b] as boxes [a, b] x [0, D)^{d-1}, so
// the 1-D harnesses (experiment runner, matrix tests, benches) can drive
// the multidim mechanisms unchanged. The embedded population's axis-0
// marginal is exactly the 1-D input, so range estimates stay unbiased.
class GridAxisAdapter final : public RangeMechanism {
 public:
  explicit GridAxisAdapter(std::unique_ptr<HierarchicalGrid> grid)
      : RangeMechanism(grid->domain_size(), grid->epsilon()),
        grid_(std::move(grid)) {}

  uint64_t user_count() const override { return grid_->user_count(); }
  std::string Name() const override { return grid_->Name(); }
  double ReportBits() const override { return grid_->ReportBits(); }

  void EncodeUser(uint64_t value, Rng& rng) override {
    std::vector<uint64_t> point(grid_->dimensions(), 0);
    point[0] = value;
    grid_->EncodePoint(point.data(), rng);
  }

  void EncodeUsers(std::span<const uint64_t> values, Rng& rng) override {
    std::vector<uint64_t> point(grid_->dimensions(), 0);
    for (uint64_t value : values) {
      point[0] = value;
      grid_->EncodePoint(point.data(), rng);
    }
  }

  std::unique_ptr<RangeMechanism> CloneEmpty() const override {
    return std::make_unique<GridAxisAdapter>(grid_->CloneEmpty());
  }

  void MergeFrom(const RangeMechanism& other) override {
    const auto* o = dynamic_cast<const GridAxisAdapter*>(&other);
    LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a GridAxisAdapter");
    grid_->MergeFromBase(*o->grid_);
  }

  void Finalize(Rng& rng) override { grid_->Finalize(rng); }

  double RangeQuery(uint64_t a, uint64_t b) const override {
    return grid_->BoxQuery(grid_->MarginalBox(a, b));
  }

  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override {
    return grid_->BoxQueryWithUncertainty(grid_->MarginalBox(a, b));
  }

  std::vector<double> EstimateFrequencies() const override {
    std::vector<double> frequencies(domain_);
    for (uint64_t z = 0; z < domain_; ++z) {
      frequencies[z] = RangeQuery(z, z);
    }
    return frequencies;
  }

 private:
  std::unique_ptr<HierarchicalGrid> grid_;
};

HierarchicalGridConfig GridConfigOf(const MethodSpec& spec) {
  HierarchicalGridConfig config;
  config.fanout = spec.fanout;
  config.oracle = spec.oracle;
  return config;
}

}  // namespace

MethodSpec MethodSpec::Flat(OracleKind oracle) {
  MethodSpec spec;
  spec.family = MethodFamily::kFlat;
  spec.oracle = oracle;
  return spec;
}

MethodSpec MethodSpec::Hh(uint64_t fanout, OracleKind oracle,
                          bool consistency) {
  MethodSpec spec;
  spec.family = MethodFamily::kHierarchical;
  spec.fanout = fanout;
  spec.oracle = oracle;
  spec.consistency = consistency;
  return spec;
}

MethodSpec MethodSpec::Haar() {
  MethodSpec spec;
  spec.family = MethodFamily::kHaar;
  return spec;
}

MethodSpec MethodSpec::Ahead(uint64_t fanout, OracleKind oracle) {
  AheadConfig config;
  config.fanout = fanout;
  config.oracle = oracle;
  return AheadWith(config);
}

MethodSpec MethodSpec::AheadWith(const AheadConfig& config) {
  MethodSpec spec;
  spec.family = MethodFamily::kAhead;
  spec.fanout = config.fanout;
  spec.oracle = config.oracle;
  spec.consistency = config.consistency;
  spec.ahead = config;
  return spec;
}

MethodSpec MethodSpec::Hier2D(uint64_t fanout, OracleKind oracle) {
  MethodSpec spec;
  spec.family = MethodFamily::kHier2D;
  spec.fanout = fanout;
  spec.oracle = oracle;
  spec.dimensions = 2;
  return spec;
}

MethodSpec MethodSpec::Grid(uint32_t dimensions, uint64_t fanout,
                            OracleKind oracle) {
  MethodSpec spec;
  spec.family = MethodFamily::kGrid;
  spec.fanout = fanout;
  spec.oracle = oracle;
  spec.dimensions = dimensions;
  return spec;
}

std::string MethodSpec::Name() const {
  switch (family) {
    case MethodFamily::kFlat: {
      std::string name = "Flat-";
      name += OracleKindName(oracle);
      return name;
    }
    case MethodFamily::kHierarchical: {
      std::string name = consistency ? "HHc" : "HH";
      name += std::to_string(fanout);
      if (oracle != OracleKind::kOueSimulated) {
        name += "-";
        name += OracleKindName(oracle);
      }
      return name;
    }
    case MethodFamily::kHaar:
      return "HaarHRR";
    case MethodFamily::kAhead:
      return AheadMethodName(ahead);
    case MethodFamily::kHier2D:
    case MethodFamily::kGrid: {
      std::string name = "HH";
      name += std::to_string(dimensions);
      name += "D";
      name += std::to_string(fanout);
      if (oracle != OracleKind::kOueSimulated) {
        name += "-";
        name += OracleKindName(oracle);
      }
      return name;
    }
  }
  return "unknown";
}

std::unique_ptr<MechanismBase> MakeMechanismBase(const MethodSpec& spec,
                                                 uint64_t domain, double eps) {
  switch (spec.family) {
    case MethodFamily::kFlat:
    case MethodFamily::kHierarchical:
    case MethodFamily::kHaar:
    case MethodFamily::kAhead:
      return MakeMechanism(spec, domain, eps);
    case MethodFamily::kHier2D:
      return std::make_unique<Hierarchical2D>(domain, eps,
                                              GridConfigOf(spec));
    case MethodFamily::kGrid:
      return std::make_unique<HierarchicalGrid>(domain, spec.dimensions, eps,
                                                GridConfigOf(spec),
                                                spec.max_total_cells);
  }
  LDP_CHECK_MSG(false, "unknown method family");
  return nullptr;
}

std::unique_ptr<RangeMechanism> MakeMechanism(const MethodSpec& spec,
                                              uint64_t domain, double eps) {
  switch (spec.family) {
    case MethodFamily::kFlat:
      return std::make_unique<FlatMechanism>(domain, eps, spec.oracle);
    case MethodFamily::kHierarchical: {
      HierarchicalConfig config;
      config.fanout = spec.fanout;
      config.oracle = spec.oracle;
      config.consistency = spec.consistency;
      return std::make_unique<HierarchicalMechanism>(domain, eps, config);
    }
    case MethodFamily::kHaar:
      return std::make_unique<HaarHrrMechanism>(domain, eps);
    case MethodFamily::kAhead:
      return std::make_unique<AheadMechanism>(domain, eps, spec.ahead);
    case MethodFamily::kHier2D:
      return std::make_unique<GridAxisAdapter>(
          std::make_unique<Hierarchical2D>(domain, eps, GridConfigOf(spec)));
    case MethodFamily::kGrid:
      return std::make_unique<GridAxisAdapter>(
          std::make_unique<HierarchicalGrid>(domain, spec.dimensions, eps,
                                             GridConfigOf(spec),
                                             spec.max_total_cells));
  }
  LDP_CHECK_MSG(false, "unknown method family");
  return nullptr;
}

}  // namespace ldp
