// Flat range-query mechanism (paper Section 4.2).
//
// The baseline: run one frequency oracle over the whole domain and answer a
// range by summing the per-item estimates. Variance grows linearly with the
// range length (Fact 1: Var = r * V_F), which is what the hierarchical and
// wavelet methods improve on. Kept both as the paper's baseline and because
// it is the most accurate choice for point queries and very short ranges.

#ifndef LDPRANGE_CORE_FLAT_H_
#define LDPRANGE_CORE_FLAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// Flat mechanism over any frequency oracle.
class FlatMechanism final : public RangeMechanism {
 public:
  FlatMechanism(uint64_t domain, double eps, OracleKind oracle);

  /// The frequency oracle over the whole domain. Mutable so a wire front
  /// end can absorb externally encoded reports and restore state into it.
  FrequencyOracle& oracle() { return *oracle_; }

  uint64_t user_count() const override;
  std::string Name() const override;
  double ReportBits() const override;
  void EncodeUser(uint64_t value, Rng& rng) override;
  void EncodeUsers(std::span<const uint64_t> values, Rng& rng) override;
  std::unique_ptr<RangeMechanism> CloneEmpty() const override;
  void MergeFrom(const RangeMechanism& other) override;
  void Finalize(Rng& rng) override;
  double RangeQuery(uint64_t a, uint64_t b) const override;
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 private:
  OracleKind oracle_kind_;
  std::unique_ptr<FrequencyOracle> oracle_;
  bool finalized_ = false;
  std::vector<double> frequencies_;
  // prefix_[i] = sum of frequencies_[0..i-1]; makes RangeQuery O(1).
  std::vector<double> prefix_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_FLAT_H_
