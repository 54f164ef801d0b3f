// Validation of RangeQueryWithUncertainty: the reported stddev must match
// (or conservatively bound) the empirical spread of the estimates, and
// standard Gaussian coverage must hold.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/method.h"
#include "eval/experiment.h"

namespace ldp {
namespace {

struct UncertaintyCase {
  MethodSpec spec;
  // Whether the predicted stddev is exact (flat/Haar) or an upper bound
  // with slack (consistent HH applies the Lemma 4.6 node factor, an
  // upper bound per node).
  bool exact;
};

class UncertaintyTest : public ::testing::TestWithParam<UncertaintyCase> {};

TEST_P(UncertaintyTest, PredictedStddevMatchesEmpirical) {
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 2000;
  const int trials = 300;
  const uint64_t qa = 37;
  const uint64_t qb = 171;
  RunningStat estimates;
  RunningStat predicted;
  for (int t = 0; t < trials; ++t) {
    Rng rng(900 + t);
    auto mech = MakeMechanism(GetParam().spec, d, eps);
    for (int i = 0; i < n; ++i) {
      mech->EncodeUser(static_cast<uint64_t>(i) % d, rng);
    }
    mech->Finalize(rng);
    RangeEstimate est = mech->RangeQueryWithUncertainty(qa, qb);
    EXPECT_DOUBLE_EQ(est.value, mech->RangeQuery(qa, qb));
    estimates.Add(est.value);
    predicted.Add(est.stddev);
  }
  double empirical_sd = estimates.sample_stddev();
  double mean_predicted = predicted.mean();
  if (GetParam().exact) {
    EXPECT_NEAR(mean_predicted, empirical_sd, 0.25 * empirical_sd)
        << GetParam().spec.Name();
  } else {
    // Upper bound, but not vacuous: within 3x.
    EXPECT_GE(mean_predicted, empirical_sd * 0.75)
        << GetParam().spec.Name();
    EXPECT_LE(mean_predicted, empirical_sd * 3.0)
        << GetParam().spec.Name();
  }
}

TEST_P(UncertaintyTest, ThreeSigmaCoverage) {
  const uint64_t d = 128;
  const double eps = 0.8;
  const int n = 1500;
  const int trials = 200;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(4000 + t);
    auto mech = MakeMechanism(GetParam().spec, d, eps);
    for (int i = 0; i < n; ++i) {
      mech->EncodeUser(static_cast<uint64_t>(i) % d, rng);
    }
    mech->Finalize(rng);
    double truth = 48.0 / d;  // uniform data, range of 48 items
    RangeEstimate est = mech->RangeQueryWithUncertainty(40, 87);
    if (std::abs(est.value - truth) <= 3.0 * est.stddev) {
      ++covered;
    }
  }
  // 3-sigma Gaussian coverage is 99.7%; demand >= 97% to absorb noise.
  EXPECT_GE(covered, trials * 97 / 100) << GetParam().spec.Name();
}

std::string CaseName(const ::testing::TestParamInfo<UncertaintyCase>& info) {
  std::string name = info.param.spec.Name();
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, UncertaintyTest,
    ::testing::Values(
        UncertaintyCase{MethodSpec::Flat(OracleKind::kOueSimulated), true},
        UncertaintyCase{MethodSpec::Haar(), true},
        UncertaintyCase{MethodSpec::Hh(4, OracleKind::kOueSimulated, false),
                        true},
        UncertaintyCase{MethodSpec::Hh(4, OracleKind::kOueSimulated, true),
                        false},
        UncertaintyCase{MethodSpec::Hh(8, OracleKind::kSueSimulated, true),
                        false}),
    CaseName);

TEST(Uncertainty, LongerRangesWiderIntervalsForFlat) {
  Rng rng(5);
  auto mech = MakeMechanism(MethodSpec::Flat(OracleKind::kOueSimulated),
                            256, 1.1);
  for (int i = 0; i < 5000; ++i) {
    mech->EncodeUser(i % 256, rng);
  }
  mech->Finalize(rng);
  double sd_short = mech->RangeQueryWithUncertainty(0, 3).stddev;
  double sd_long = mech->RangeQueryWithUncertainty(0, 255).stddev;
  EXPECT_NEAR(sd_long / sd_short, std::sqrt(256.0 / 4.0), 0.01);
}

TEST(Uncertainty, HaarStddevInsensitiveToRangeLength) {
  Rng rng(6);
  auto mech = MakeMechanism(MethodSpec::Haar(), 256, 1.1);
  for (int i = 0; i < 5000; ++i) {
    mech->EncodeUser(i % 256, rng);
  }
  mech->Finalize(rng);
  double sd_short = mech->RangeQueryWithUncertainty(100, 107).stddev;
  double sd_long = mech->RangeQueryWithUncertainty(3, 220).stddev;
  EXPECT_LT(sd_long / sd_short, 2.0);
  EXPECT_GT(sd_long / sd_short, 0.5);
}

TEST(Uncertainty, FullDomainHaarQueryIsCertain) {
  Rng rng(7);
  auto mech = MakeMechanism(MethodSpec::Haar(), 128, 0.5);
  for (int i = 0; i < 1000; ++i) {
    mech->EncodeUser(i % 128, rng);
  }
  mech->Finalize(rng);
  RangeEstimate est = mech->RangeQueryWithUncertainty(0, 127);
  EXPECT_NEAR(est.value, 1.0, 1e-12);
  EXPECT_NEAR(est.stddev, 0.0, 1e-12);
}

TEST(Uncertainty, HaarStddevIsNeverNaNOverEmptyLevels) {
  // A level with no reports has infinite variance. A range that weighs
  // none of its coefficients (the full domain) stays certain, one that
  // weighs some is infinitely uncertain — never 0 * inf = NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (int users : {0, 1}) {
    SCOPED_TRACE(users);
    Rng rng(8);
    auto mech = MakeMechanism(MethodSpec::Haar(), 256, 1.1);
    for (int i = 0; i < users; ++i) {
      mech->EncodeUser(42, rng);
    }
    mech->Finalize(rng);
    EXPECT_EQ(mech->RangeQueryWithUncertainty(0, 255).stddev, 0.0);
    EXPECT_EQ(mech->RangeQueryWithUncertainty(3, 77).stddev, inf);
  }
}

}  // namespace
}  // namespace ldp
