// Generalized Randomized Response (k-RR).
//
// The direct generalization of Warner's 1965 randomized response to a
// k-valued domain (Kairouz et al., ICML 2016): report the true value with
// probability p = e^eps / (e^eps + k - 1), otherwise report a uniformly
// random *other* value. Used standalone for small domains and as the inner
// perturbation primitive of OLH (paper Section 3.2).

#ifndef LDPRANGE_FREQUENCY_GRR_H_
#define LDPRANGE_FREQUENCY_GRR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

namespace protocol {
class WireReader;
}  // namespace protocol

/// Stateless client-side k-RR randomizer; shared with OLH.
/// Returns the perturbed value in [0, k).
uint64_t GrrPerturb(uint64_t value, uint64_t k, double eps, Rng& rng);

/// Probability that k-RR reports the true value.
double GrrTruthProbability(uint64_t k, double eps);

/// Low-frequency per-item variance of the k-RR estimator over n reports:
/// q(1-q) / (n (p-q)^2) with q = (1-p)/(k-1); +inf when n == 0.
double GrrLowFrequencyVariance(uint64_t k, double eps, uint64_t n);

/// GRR frequency oracle.
class GrrOracle final : public FrequencyOracle {
 public:
  GrrOracle(uint64_t domain, double eps);

  double ReportBits() const override;
  double EstimatorVariance() const override;
  void SubmitValue(uint64_t value, Rng& rng) override;
  void SubmitBatch(std::span<const uint64_t> values, Rng& rng) override;

  /// Aggregator-side ingest of one report a client already perturbed
  /// (GrrPerturb's output, < D): a wire front end's absorb path.
  void AbsorbReport(uint64_t reported) {
    LDP_CHECK_LT(reported, domain_);
    ++counts_[reported];
    ++reports_;
  }
  std::vector<double> EstimateFractions() const override;
  std::unique_ptr<FrequencyOracle> CloneEmpty() const override;
  void MergeFrom(const FrequencyOracle& other) override;

  /// Appends this oracle's aggregate state in its canonical wire form:
  /// [D x tally u64] (the report count is their sum). The counterpart
  /// of RestoreState; see service/state_wire.h.
  void AppendState(std::vector<uint8_t>& out) const;

  /// Restores serialized state into this (empty, identically configured)
  /// oracle. Total over adversarial bytes: false on truncation or on
  /// tallies whose sum overflows uint64 (discard the oracle then — state
  /// may be partially written). Reads exactly one AppendState record
  /// from `reader`.
  bool RestoreState(protocol::WireReader& reader);

 private:
  std::vector<uint64_t> counts_;
};

}  // namespace ldp

#endif  // LDPRANGE_FREQUENCY_GRR_H_
