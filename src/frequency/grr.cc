#include "frequency/grr.h"

#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "protocol/wire.h"

namespace ldp {

double GrrTruthProbability(uint64_t k, double eps) {
  LDP_CHECK_GE(k, 2u);
  double e = std::exp(eps);
  return e / (e + static_cast<double>(k) - 1.0);
}

uint64_t GrrPerturb(uint64_t value, uint64_t k, double eps, Rng& rng) {
  LDP_DCHECK_LT(value, k);
  double p = GrrTruthProbability(k, eps);
  if (rng.Bernoulli(p)) {
    return value;
  }
  // Uniform over the k-1 *other* values: draw from [0, k-1) and skip self.
  uint64_t r = rng.UniformInt(k - 1);
  return r >= value ? r + 1 : r;
}

double GrrLowFrequencyVariance(uint64_t k, double eps, uint64_t n) {
  if (n == 0) return std::numeric_limits<double>::infinity();
  double p = GrrTruthProbability(k, eps);
  double q = (1.0 - p) / (static_cast<double>(k) - 1.0);
  double d = p - q;
  return q * (1.0 - q) / (static_cast<double>(n) * d * d);
}

GrrOracle::GrrOracle(uint64_t domain, double eps)
    : FrequencyOracle(domain, eps), counts_(domain, 0) {
  LDP_CHECK_GE(domain, 2u);
}

double GrrOracle::ReportBits() const {
  return static_cast<double>(Log2Ceil(domain_));
}

double GrrOracle::EstimatorVariance() const {
  // Low-frequency item variance; D-dependent, unlike the D-free V_F
  // oracles.
  return GrrLowFrequencyVariance(domain_, eps_, reports_);
}

void GrrOracle::SubmitValue(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  AbsorbReport(GrrPerturb(value, domain_, eps_, rng));
}

void GrrOracle::SubmitBatch(std::span<const uint64_t> values, Rng& rng) {
  for (uint64_t value : values) {
    LDP_CHECK_LT(value, domain_);
    ++counts_[GrrPerturb(value, domain_, eps_, rng)];
  }
  reports_ += values.size();
}

std::vector<double> GrrOracle::EstimateFractions() const {
  // All zeros before any report, with the matching +inf variance.
  std::vector<double> est(domain_, 0.0);
  if (reports_ == 0) return est;
  double p = GrrTruthProbability(domain_, eps_);
  double q = (1.0 - p) / (static_cast<double>(domain_) - 1.0);
  double dn = static_cast<double>(reports_);
  for (size_t j = 0; j < domain_; ++j) {
    est[j] = (static_cast<double>(counts_[j]) / dn - q) / (p - q);
  }
  return est;
}

std::unique_ptr<FrequencyOracle> GrrOracle::CloneEmpty() const {
  return std::make_unique<GrrOracle>(domain_, eps_);
}

void GrrOracle::MergeFrom(const FrequencyOracle& other) {
  CheckMergeCompatible(other);
  const auto* o = dynamic_cast<const GrrOracle*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a GrrOracle");
  for (uint64_t j = 0; j < domain_; ++j) {
    counts_[j] += o->counts_[j];
  }
  reports_ += o->reports_;
}

void GrrOracle::AppendState(std::vector<uint8_t>& out) const {
  for (uint64_t c : counts_) protocol::AppendU64(out, c);
}

bool GrrOracle::RestoreState(protocol::WireReader& reader) {
  uint64_t reports = 0;
  for (uint64_t& c : counts_) {
    if (!reader.ReadU64(&c)) return false;
    if (__builtin_add_overflow(reports, c, &reports)) return false;
  }
  reports_ = reports;
  return true;
}

}  // namespace ldp
