// HaarHRR: range queries via perturbed Discrete Haar Transform coefficients
// (paper Section 4.6).
//
// Protocol: the domain is padded to D = 2^h. Each user samples one Haar
// level l in [1, h] uniformly (same analysis as HH: uniform is optimal) and
// reports their level-l coefficient vector — a signed one-hot vector with
// entry +/-1 at the block containing their value — through Hadamard
// Randomized Response. HRR is the paper's chosen primitive because it
// handles the negative weight natively and the report is a single bit plus
// indices. The topmost "average" coefficient c0 needs no reports: it always
// equals 1/sqrt(D) for a fraction vector.
//
// No consistency step exists or is needed: Haar coefficients are
// non-redundant, so any coefficient estimate vector corresponds to exactly
// one (signed) frequency vector. Worst-case range variance is
// (1/2) log2(D)^2 V_F (Eq. 3), independent of the range length.

#ifndef LDPRANGE_CORE_HAAR_HRR_H_
#define LDPRANGE_CORE_HAAR_HRR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/haar.h"
#include "core/range_mechanism.h"
#include "frequency/hrr.h"

namespace ldp {

/// The HaarHRR range mechanism.
class HaarHrrMechanism final : public RangeMechanism {
 public:
  HaarHrrMechanism(uint64_t domain, double eps);

  /// Padded power-of-two domain the Haar tree is built over.
  uint64_t padded_domain() const { return padded_; }
  uint32_t height() const { return height_; }

  /// The HRR oracle perturbing level l's coefficients (1-based). Mutable
  /// so a wire front end can absorb externally encoded reports and
  /// restore state into it.
  HrrOracle& level_oracle(uint32_t level);

  uint64_t user_count() const override;
  std::string Name() const override { return "HaarHRR"; }
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

  /// Post-Finalize estimated orthonormal coefficients (tests/diagnostics).
  const HaarCoefficients& coefficients() const;

 private:
  uint64_t padded_;
  uint32_t height_;
  // level_oracles_[l-1] perturbs the level-l coefficient vector
  // (domain D / 2^l entries, signed).
  std::vector<std::unique_ptr<HrrOracle>> level_oracles_;
  bool finalized_ = false;
  HaarCoefficients coefficients_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_HAAR_HRR_H_
