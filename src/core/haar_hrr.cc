#include "core/haar_hrr.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/check.h"

namespace ldp {

HaarHrrMechanism::HaarHrrMechanism(uint64_t domain, double eps)
    : RangeMechanism(domain, eps),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)) {
  LDP_CHECK_GE(height_, 1u);
  level_oracles_.reserve(height_);
  for (uint32_t l = 1; l <= height_; ++l) {
    level_oracles_.push_back(
        std::make_unique<HrrOracle>(padded_ >> l, eps));
  }
}

HrrOracle& HaarHrrMechanism::level_oracle(uint32_t level) {
  LDP_CHECK_GE(level, 1u);
  LDP_CHECK_LE(level, height_);
  return *level_oracles_[level - 1];
}

uint64_t HaarHrrMechanism::user_count() const {
  // Each user reports at exactly one level.
  uint64_t users = 0;
  for (const auto& oracle : level_oracles_) users += oracle->report_count();
  return users;
}

double HaarHrrMechanism::ReportBits() const {
  double level_id_bits = static_cast<double>(Log2Ceil(height_));
  double bits = 0.0;
  for (const auto& oracle : level_oracles_) {
    bits += oracle->ReportBits();
  }
  return level_id_bits + bits / static_cast<double>(height_);
}

void HaarHrrMechanism::EncodeUser(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  LDP_CHECK_MSG(!finalized_, "EncodeUser after Finalize");
  uint32_t level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
  HaarUserCoefficient view = HaarUserView(value, level);
  level_oracles_[level - 1]->SubmitSignedValue(view.block, view.sign, rng);
}

void HaarHrrMechanism::EncodeUsers(std::span<const uint64_t> values,
                                   Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodeUsers after Finalize");
  // Same draw order as the EncodeUser loop (level pick, then submit).
  for (uint64_t value : values) {
    LDP_CHECK_LT(value, domain_);
    uint32_t level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
    HaarUserCoefficient view = HaarUserView(value, level);
    level_oracles_[level - 1]->SubmitSignedValue(view.block, view.sign, rng);
  }
}

std::unique_ptr<RangeMechanism> HaarHrrMechanism::CloneEmpty() const {
  return std::make_unique<HaarHrrMechanism>(domain_, eps_);
}

void HaarHrrMechanism::MergeFrom(const RangeMechanism& other) {
  const auto* o = dynamic_cast<const HaarHrrMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a HaarHrrMechanism");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  // Distinct domains can share a padded size (and thus identical level
  // oracles); reject instead of merging mismatched populations.
  LDP_CHECK(o->domain_ == domain_);
  for (size_t l = 0; l < level_oracles_.size(); ++l) {
    level_oracles_[l]->MergeFrom(*o->level_oracles_[l]);
  }
}

void HaarHrrMechanism::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  coefficients_.height = height_;
  // c0 is the scaled total mass — exactly 1/sqrt(D) for fractions, no
  // perturbation required (paper: "hardcoded ... since it does not require
  // perturbation").
  coefficients_.average = 1.0 / std::sqrt(static_cast<double>(padded_));
  coefficients_.detail.resize(height_);
  for (uint32_t l = 1; l <= height_; ++l) {
    level_oracles_[l - 1]->Finalize(rng);
    // The oracle estimates the signed fraction vector g with
    // g[k] = S_L - S_R for block k; the orthonormal coefficient adds the
    // 2^{-l/2} scale.
    std::vector<double> g = level_oracles_[l - 1]->EstimateFractions();
    double scale = std::exp2(-0.5 * static_cast<double>(l));
    for (double& v : g) {
      v *= scale;
    }
    coefficients_.detail[l - 1] = std::move(g);
  }
  finalized_ = true;
}

double HaarHrrMechanism::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, domain_);
  return HaarRangeEstimate(coefficients_, padded_, a, b);
}

RangeEstimate HaarHrrMechanism::RangeQueryWithUncertainty(
    uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, domain_);
  // Var = sum over boundary-cut coefficients of
  //   weight^2 * Var(c_hat) with Var(c_hat) = 2^-l * Var(g_hat)
  // (the level oracle estimates g; the orthonormal coefficient rescales
  // by 2^{-l/2}). c0 is exact and contributes nothing. A coefficient the
  // range does not weigh adds nothing either, even from a level with no
  // reports (whose variance is +inf: 0 * inf would be NaN).
  double variance = 0.0;
  for (uint32_t l = 1; l <= height_; ++l) {
    double coeff_var = std::exp2(-static_cast<double>(l)) *
                       level_oracles_[l - 1]->EstimatorVariance();
    uint64_t ka = a >> l;
    uint64_t kb = b >> l;
    double wa = HaarRangeWeight(l, ka, a, b);
    if (wa != 0.0) variance += wa * wa * coeff_var;
    if (kb != ka) {
      double wb = HaarRangeWeight(l, kb, a, b);
      if (wb != 0.0) variance += wb * wb * coeff_var;
    }
  }
  return RangeEstimate{HaarRangeEstimate(coefficients_, padded_, a, b),
                       std::sqrt(variance)};
}

std::vector<double> HaarHrrMechanism::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  std::vector<double> leaves = HaarInverse(coefficients_);
  leaves.resize(domain_);
  return leaves;
}

const HaarCoefficients& HaarHrrMechanism::coefficients() const {
  LDP_CHECK_MSG(finalized_, "coefficients before Finalize");
  return coefficients_;
}

}  // namespace ldp
