#include "frequency/hrr.h"

#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "frequency/hadamard.h"
#include "protocol/wire.h"

namespace ldp {

HrrOracle::HrrOracle(uint64_t domain, double eps)
    : FrequencyOracle(domain, eps),
      padded_(NextPowerOfTwo(domain)),
      coefficient_sums_(padded_, 0) {
  LDP_CHECK_GE(domain, 1u);
}

double HrrOracle::KeepProbability() const {
  double e = std::exp(eps_);
  return e / (1.0 + e);
}

double HrrOracle::ReportBits() const {
  return static_cast<double>(Log2Ceil(padded_)) + 1.0;
}

double HrrOracle::EstimatorVariance() const {
  if (reports_ == 0) return std::numeric_limits<double>::infinity();
  return HrrExactVariance(eps_, static_cast<double>(reports_));
}

HrrReport HrrEncode(uint64_t padded_domain, double eps, uint64_t value,
                    int sign, Rng& rng) {
  LDP_CHECK(IsPowerOfTwo(padded_domain));
  LDP_CHECK_LT(value, padded_domain);
  LDP_CHECK(IsUnitSign(sign));
  HrrReport report;
  report.coefficient_index = rng.UniformInt(padded_domain);
  int coefficient = sign * HadamardSign(value, report.coefficient_index);
  double e = std::exp(eps);
  if (!rng.Bernoulli(e / (1.0 + e))) {
    coefficient = -coefficient;
  }
  report.sign = static_cast<int8_t>(coefficient);
  return report;
}

void HrrOracle::SubmitValue(uint64_t value, Rng& rng) {
  SubmitSignedValue(value, +1, rng);
}

void HrrOracle::SubmitSignedValue(uint64_t value, int sign, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  AbsorbReport(HrrEncode(padded_, eps_, value, sign, rng));
}

std::vector<double> HrrOracle::EstimateFractions() const {
  std::vector<double> spectrum(padded_, 0.0);
  if (reports_ == 0) {
    return std::vector<double>(domain_, 0.0);
  }
  for (uint64_t j = 0; j < padded_; ++j) {
    spectrum[j] = static_cast<double>(coefficient_sums_[j]);
  }
  // theta_hat[z] = FWHT(O)[z] / (N (2p-1)): the index-sampling factor D and
  // the two 1/sqrt(D) normalizations cancel exactly.
  FastWalshHadamard(spectrum);
  double scale =
      1.0 / (static_cast<double>(reports_) * (2.0 * KeepProbability() - 1.0));
  std::vector<double> est(domain_, 0.0);
  for (uint64_t z = 0; z < domain_; ++z) {
    est[z] = spectrum[z] * scale;
  }
  return est;
}

std::unique_ptr<FrequencyOracle> HrrOracle::CloneEmpty() const {
  return std::make_unique<HrrOracle>(domain_, eps_);
}

void HrrOracle::MergeFrom(const FrequencyOracle& other) {
  CheckMergeCompatible(other);
  const auto* o = dynamic_cast<const HrrOracle*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires an HrrOracle");
  for (uint64_t j = 0; j < padded_; ++j) {
    coefficient_sums_[j] += o->coefficient_sums_[j];
  }
  reports_ += o->reports_;
}

void HrrOracle::AppendState(std::vector<uint8_t>& out) const {
  protocol::AppendVarU64(out, reports_);
  protocol::AppendVarU64(out, padded_);
  for (int64_t sum : coefficient_sums_) {
    protocol::AppendU64(out, static_cast<uint64_t>(sum));
  }
}

bool HrrOracle::RestoreState(protocol::WireReader& reader) {
  uint64_t reports = 0;
  uint64_t padded = 0;
  if (!reader.ReadVarU64(&reports) || !reader.ReadVarU64(&padded)) {
    return false;
  }
  // The padded domain is a cross-check against the destination's own
  // configuration (already fixed at construction), never an allocation
  // size — a forged value fails here without touching memory.
  if (padded != padded_) return false;
  for (uint64_t j = 0; j < padded_; ++j) {
    uint64_t sum = 0;
    if (!reader.ReadU64(&sum)) return false;
    coefficient_sums_[j] = static_cast<int64_t>(sum);
  }
  reports_ = reports;
  return true;
}

}  // namespace ldp
