#include "core/haar_hrr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/variance.h"
#include "frequency/frequency_oracle.h"

namespace ldp {
namespace {

TEST(HaarHrr, GeometryAndName) {
  HaarHrrMechanism mech(256, 1.0);
  EXPECT_EQ(mech.Name(), "HaarHRR");
  EXPECT_EQ(mech.padded_domain(), 256u);
  EXPECT_EQ(mech.height(), 8u);
  HaarHrrMechanism padded(100, 1.0);
  EXPECT_EQ(padded.padded_domain(), 128u);
}

TEST(HaarHrr, NoiselessRecoversRangeAnswers) {
  Rng rng(1);
  HaarHrrMechanism mech(64, 60.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    mech.EncodeUser(i % 4 == 0 ? 10 : 40, rng);
  }
  mech.Finalize(rng);
  EXPECT_NEAR(mech.RangeQuery(0, 31), 0.25, 0.02);
  EXPECT_NEAR(mech.RangeQuery(32, 63), 0.75, 0.02);
  EXPECT_NEAR(mech.RangeQuery(10, 10), 0.25, 0.02);
  EXPECT_NEAR(mech.RangeQuery(40, 40), 0.75, 0.02);
  EXPECT_NEAR(mech.RangeQuery(0, 63), 1.0, 1e-9);  // c0 is exact
}

TEST(HaarHrr, FullDomainQueryIsExactlyOne) {
  // Every detail coefficient has zero weight for the full range and c0 is
  // hardcoded: the answer must be exactly 1 regardless of noise.
  Rng rng(2);
  HaarHrrMechanism mech(128, 0.2);  // very noisy
  for (int i = 0; i < 1000; ++i) {
    mech.EncodeUser(i % 128, rng);
  }
  mech.Finalize(rng);
  EXPECT_NEAR(mech.RangeQuery(0, 127), 1.0, 1e-12);
}

TEST(HaarHrr, EstimatesUnbiased) {
  const uint64_t d = 64;
  const double eps = 1.1;
  const int trials = 150;
  const int n = 4000;
  RunningStat range_est;
  Rng rng(3);
  for (int t = 0; t < trials; ++t) {
    HaarHrrMechanism mech(d, eps);
    for (int i = 0; i < n; ++i) {
      mech.EncodeUser(i % 32, rng);
    }
    mech.Finalize(rng);
    range_est.Add(mech.RangeQuery(8, 23));  // truth 0.5
  }
  EXPECT_NEAR(range_est.mean(), 0.5,
              5 * std::sqrt(range_est.sample_variance() / trials) + 0.01);
}

TEST(HaarHrr, CoefficientEstimatesMatchTrueSpectrum) {
  Rng rng(4);
  const uint64_t d = 32;
  HaarHrrMechanism mech(d, 60.0);
  const int n = 300000;
  std::vector<double> freq(d, 0.0);
  for (int i = 0; i < n; ++i) {
    uint64_t z = (i * 7) % d;
    freq[z] += 1.0 / n;
    mech.EncodeUser(z, rng);
  }
  mech.Finalize(rng);
  HaarCoefficients truth = HaarForward(freq);
  const HaarCoefficients& est = mech.coefficients();
  EXPECT_NEAR(est.average, truth.average, 1e-12);
  for (uint32_t l = 1; l <= est.height; ++l) {
    for (size_t k = 0; k < est.detail[l - 1].size(); ++k) {
      EXPECT_NEAR(est.detail[l - 1][k], truth.detail[l - 1][k], 0.02)
          << "l=" << l << " k=" << k;
    }
  }
}

TEST(HaarHrr, VarianceWithinEq3Envelope) {
  // Eq. 3: Vr <= (1/2) log2(D)^2 V_F for any range — check a worst-ish
  // case range against the bound (using HRR's exact V_F).
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 2000;
  const int trials = 250;
  RunningStat est;
  Rng rng(5);
  for (int t = 0; t < trials; ++t) {
    HaarHrrMechanism mech(d, eps);
    for (int i = 0; i < n; ++i) {
      mech.EncodeUser(i % d, rng);
    }
    mech.Finalize(rng);
    est.Add(mech.RangeQuery(13, 201));
  }
  double e = std::exp(eps);
  double exact_vf = (e + 1) * (e + 1) / (n * (e - 1) * (e - 1));
  double h = std::log2(static_cast<double>(d));
  double bound = 0.5 * h * h * exact_vf;
  EXPECT_LT(est.variance(), bound);
  EXPECT_GT(est.variance(), bound / 30.0);
}

TEST(HaarHrr, VarianceIndependentOfRangeLength) {
  // The Eq. 3 bound does not depend on r; short and long ranges should
  // have variances within a small constant of each other (unlike flat).
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 2000;
  const int trials = 300;
  RunningStat short_range;
  RunningStat long_range;
  Rng rng(6);
  for (int t = 0; t < trials; ++t) {
    HaarHrrMechanism mech(d, eps);
    for (int i = 0; i < n; ++i) {
      mech.EncodeUser(i % d, rng);
    }
    mech.Finalize(rng);
    short_range.Add(mech.RangeQuery(100, 107));   // r = 8
    long_range.Add(mech.RangeQuery(3, 220));      // r = 218
  }
  EXPECT_LT(long_range.variance() / short_range.variance(), 3.0);
  EXPECT_GT(long_range.variance() / short_range.variance(), 1.0 / 3.0);
}

TEST(HaarHrr, EstimateFrequenciesMatchesInverseTransform) {
  Rng rng(7);
  HaarHrrMechanism mech(32, 1.0);
  for (int i = 0; i < 5000; ++i) {
    mech.EncodeUser(i % 32, rng);
  }
  mech.Finalize(rng);
  std::vector<double> freq = mech.EstimateFrequencies();
  ASSERT_EQ(freq.size(), 32u);
  // Point queries must agree with the frequency vector.
  for (uint64_t z = 0; z < 32; z += 5) {
    EXPECT_NEAR(mech.PointQuery(z), freq[z], 1e-9);
  }
  // And the frequency vector sums to 1 exactly (c0 pinned).
  double sum = 0.0;
  for (double f : freq) {
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HaarHrr, ReportIsAFewBits) {
  HaarHrrMechanism mech(1 << 16, 1.0);
  // Level id (4 bits) + average over levels of (log2(D/2^l) + 1) bits.
  EXPECT_LT(mech.ReportBits(), 24.0);
  EXPECT_GT(mech.ReportBits(), 4.0);
}

TEST(HaarHrr, GuardsAgainstMisuse) {
  Rng rng(8);
  HaarHrrMechanism mech(16, 1.0);
  EXPECT_DEATH(mech.RangeQuery(0, 3), "Finalize");
  EXPECT_DEATH(mech.coefficients(), "Finalize");
  mech.EncodeUser(3, rng);
  mech.Finalize(rng);
  EXPECT_DEATH(mech.Finalize(rng), "twice");
  EXPECT_DEATH(mech.EncodeUser(3, rng), "Finalize");
}

TEST(HaarHrr, UserCountSeesReportsAbsorbedIntoLevelOracles) {
  // A wire server absorbs client-encoded reports straight into the level
  // oracles; the user count must include them.
  HaarHrrMechanism mech(64, 1.1);
  mech.level_oracle(1).AbsorbReport(HrrReport{3, +1});
  mech.level_oracle(6).AbsorbReport(HrrReport{0, -1});
  Rng rng(1);
  mech.EncodeUser(7, rng);
  EXPECT_EQ(mech.user_count(), 3u);
}

}  // namespace
}  // namespace ldp
