#include "core/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/variance.h"
#include "frequency/frequency_oracle.h"
#include "frequency/hrr.h"

namespace ldp {
namespace {

HierarchicalConfig Config(uint64_t fanout, OracleKind oracle,
                          bool consistency) {
  HierarchicalConfig config;
  config.fanout = fanout;
  config.oracle = oracle;
  config.consistency = consistency;
  return config;
}

TEST(Hierarchical, NameEncodesConfiguration) {
  HierarchicalMechanism a(256, 1.0,
                          Config(8, OracleKind::kOueSimulated, true));
  EXPECT_EQ(a.Name(), "HHc8-OUE(sim)");
  HierarchicalMechanism b(256, 1.0, Config(4, OracleKind::kHrr, false));
  EXPECT_EQ(b.Name(), "HH4-HRR");
}

TEST(Hierarchical, NoiselessExactRecovery) {
  // With a huge eps the whole pipeline (level sampling + oracle +
  // consistency) must recover range answers up to level-sampling noise;
  // with enough users per level that noise is tiny.
  Rng rng(1);
  HierarchicalMechanism mech(64, 60.0,
                             Config(4, OracleKind::kOueSimulated, true));
  const int n = 120000;
  for (int i = 0; i < n; ++i) {
    mech.EncodeUser(i % 64 < 16 ? (i % 16) : 32, rng);
  }
  mech.Finalize(rng);
  // True distribution: values 0..15 each 1/256 of 1/4... compute directly:
  // i%64<16 happens 16/64 = 1/4 of the time, spread over 0..15; else 32.
  EXPECT_NEAR(mech.RangeQuery(0, 15), 0.25, 0.02);
  EXPECT_NEAR(mech.RangeQuery(32, 32), 0.75, 0.02);
  EXPECT_NEAR(mech.RangeQuery(0, 63), 1.0, 1e-9);  // consistency pins root
  EXPECT_NEAR(mech.RangeQuery(48, 63), 0.0, 0.02);
}

TEST(Hierarchical, LevelSamplingIsUniform) {
  Rng rng(2);
  HierarchicalMechanism mech(256, 1.0,
                             Config(2, OracleKind::kOueSimulated, false));
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    mech.EncodeUser(i % 256, rng);
  }
  const uint32_t h = mech.shape().height();
  double expected = static_cast<double>(n) / h;
  for (uint32_t l = 1; l <= h; ++l) {
    EXPECT_NEAR(mech.LevelReportCount(l), expected,
                6 * std::sqrt(expected))
        << "level " << l;
  }
}

TEST(Hierarchical, CustomLevelWeights) {
  HierarchicalConfig config = Config(2, OracleKind::kOueSimulated, false);
  config.level_weights = {1.0, 0.0, 0.0, 0.0};  // only the coarsest level
  Rng rng(3);
  HierarchicalMechanism mech(16, 1.0, config);
  for (int i = 0; i < 1000; ++i) {
    mech.EncodeUser(i % 16, rng);
  }
  EXPECT_EQ(mech.LevelReportCount(1), 1000u);
  EXPECT_EQ(mech.LevelReportCount(2), 0u);
}

TEST(Hierarchical, RangeEstimatesUnbiased) {
  const uint64_t d = 64;
  const double eps = 1.1;
  const int trials = 120;
  const int n = 3000;
  RunningStat mid_range;
  Rng rng(4);
  for (int t = 0; t < trials; ++t) {
    HierarchicalMechanism mech(d, eps,
                               Config(4, OracleKind::kOueSimulated, false));
    for (int i = 0; i < n; ++i) {
      mech.EncodeUser(i % 32, rng);  // uniform over first half
    }
    mech.Finalize(rng);
    mid_range.Add(mech.RangeQuery(8, 23));  // true answer: 16/32 = 0.5
  }
  EXPECT_NEAR(mid_range.mean(), 0.5,
              5 * std::sqrt(mid_range.sample_variance() / trials) + 0.01);
}

TEST(Hierarchical, ConsistencyNeverHurtsAndUsuallyHelps) {
  // Paper Figure 4's headline: the CI step reliably reduces MSE. Run the
  // same reports through both paths via a fixed seed.
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 20000;
  const int trials = 30;
  double mse_raw = 0.0;
  double mse_ci = 0.0;
  for (int t = 0; t < trials; ++t) {
    for (bool ci : {false, true}) {
      Rng rng(100 + t);  // identical stream for both variants
      HierarchicalMechanism mech(d, eps,
                                 Config(4, OracleKind::kOueSimulated, ci));
      for (int i = 0; i < n; ++i) {
        mech.EncodeUser(i % d, rng);
      }
      mech.Finalize(rng);
      double err = 0.0;
      int queries = 0;
      for (uint64_t a = 0; a < d; a += 16) {
        for (uint64_t b = a; b < d; b += 16) {
          double truth =
              static_cast<double>(b - a + 1) / static_cast<double>(d);
          double e = mech.RangeQuery(a, b) - truth;
          err += e * e;
          ++queries;
        }
      }
      (ci ? mse_ci : mse_raw) += err / queries / trials;
    }
  }
  EXPECT_LT(mse_ci, mse_raw);
}

TEST(Hierarchical, ConsistentTreeAnswersAgreeHoweverAssembled) {
  // After CI, parent == sum(children): any way to assemble a range gives
  // the same answer. Compare the B-adic path with a leaf-sum path.
  Rng rng(5);
  HierarchicalMechanism mech(64, 1.0,
                             Config(2, OracleKind::kOueSimulated, true));
  for (int i = 0; i < 5000; ++i) {
    mech.EncodeUser(i % 64, rng);
  }
  mech.Finalize(rng);
  std::vector<double> leaves = mech.EstimateFrequencies();
  for (uint64_t a = 0; a < 64; a += 7) {
    for (uint64_t b = a; b < 64; b += 5) {
      double leaf_sum = 0.0;
      for (uint64_t z = a; z <= b; ++z) {
        leaf_sum += leaves[z];
      }
      EXPECT_NEAR(mech.RangeQuery(a, b), leaf_sum, 1e-9)
          << "[" << a << "," << b << "]";
    }
  }
}

TEST(Hierarchical, VarianceWithinTheorem43Envelope) {
  // Empirical variance of a fixed range must stay below the Theorem 4.3
  // bound (it is a worst-case bound, so only the upper check is strict).
  const uint64_t d = 256;
  const uint64_t fanout = 4;
  const double eps = 1.1;
  const int n = 2000;
  const int trials = 250;
  RunningStat est;
  Rng rng(6);
  for (int t = 0; t < trials; ++t) {
    HierarchicalMechanism mech(
        d, eps, Config(fanout, OracleKind::kOueSimulated, false));
    for (int i = 0; i < n; ++i) {
      mech.EncodeUser(i % d, rng);
    }
    mech.Finalize(rng);
    est.Add(mech.RangeQuery(13, 77));  // r = 65
  }
  double bound = HhRangeVarianceBound(d, fanout, 65, eps, n);
  EXPECT_LT(est.variance(), bound);
  // And the bound should not be vacuous: within ~20x.
  EXPECT_GT(est.variance(), bound / 20.0);
}

TEST(Hierarchical, PointQueryUsesLeafLevel) {
  Rng rng(7);
  HierarchicalMechanism mech(16, 60.0,
                             Config(2, OracleKind::kOueSimulated, true));
  for (int i = 0; i < 40000; ++i) {
    mech.EncodeUser(i % 4, rng);
  }
  mech.Finalize(rng);
  EXPECT_NEAR(mech.PointQuery(0), 0.25, 0.02);
  EXPECT_NEAR(mech.PointQuery(9), 0.0, 0.02);
}

TEST(Hierarchical, NonPowerDomainIsPadded) {
  Rng rng(8);
  HierarchicalMechanism mech(100, 60.0,
                             Config(4, OracleKind::kOueSimulated, true));
  EXPECT_EQ(mech.shape().padded_domain(), 256u);
  for (int i = 0; i < 50000; ++i) {
    mech.EncodeUser(i % 100, rng);
  }
  mech.Finalize(rng);
  EXPECT_NEAR(mech.RangeQuery(0, 99), 1.0, 0.02);
  EXPECT_NEAR(mech.RangeQuery(50, 99), 0.5, 0.02);
}

TEST(Hierarchical, GuardsAgainstMisuse) {
  Rng rng(9);
  HierarchicalMechanism mech(16, 1.0,
                             Config(2, OracleKind::kOueSimulated, true));
  EXPECT_DEATH(mech.RangeQuery(0, 3), "Finalize");
  mech.EncodeUser(1, rng);
  mech.Finalize(rng);
  EXPECT_DEATH(mech.EncodeUser(1, rng), "Finalize");
  EXPECT_DEATH(mech.RangeQuery(3, 1), "");
  EXPECT_DEATH(mech.RangeQuery(0, 16), "");
}

TEST(Hierarchical, SamplingBeatsSplitting) {
  // Paper Section 4.4 "Key difference": splitting eps across levels costs
  // ~h^2 versus sampling's ~h. At D=256, B=2 (h=8) the gap is large.
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 20000;
  const int trials = 15;
  double mse_sample = 0.0;
  double mse_split = 0.0;
  for (int t = 0; t < trials; ++t) {
    for (BudgetStrategy strategy :
         {BudgetStrategy::kSampling, BudgetStrategy::kSplitting}) {
      HierarchicalConfig config = Config(2, OracleKind::kOueSimulated, true);
      config.budget = strategy;
      Rng rng(500 + t);
      HierarchicalMechanism mech(d, eps, config);
      for (int i = 0; i < n; ++i) {
        mech.EncodeUser(i % d, rng);
      }
      mech.Finalize(rng);
      double err = 0.0;
      int queries = 0;
      for (uint64_t a = 0; a < d - 64; a += 8) {
        double truth = 64.0 / d;
        double e = mech.RangeQuery(a, a + 63) - truth;
        err += e * e;
        ++queries;
      }
      double mse = err / queries / trials;
      (strategy == BudgetStrategy::kSampling ? mse_sample : mse_split) += mse;
    }
  }
  EXPECT_LT(mse_sample * 2, mse_split);
}

TEST(Hierarchical, SplittingSubmitsEveryLevel) {
  HierarchicalConfig config = Config(2, OracleKind::kOueSimulated, false);
  config.budget = BudgetStrategy::kSplitting;
  Rng rng(10);
  HierarchicalMechanism mech(16, 1.0, config);
  EXPECT_EQ(mech.Name(), "HH2-OUE(sim)-split");
  for (int i = 0; i < 100; ++i) {
    mech.EncodeUser(i % 16, rng);
  }
  for (uint32_t l = 1; l <= mech.shape().height(); ++l) {
    EXPECT_EQ(mech.LevelReportCount(l), 100u);
  }
}

TEST(Hierarchical, ReportBitsReflectsLevelMix) {
  HierarchicalMechanism mech(256, 1.0,
                             Config(2, OracleKind::kHrr, false));
  // HRR at level l costs log2(2^l) + 1 bits; average over 8 levels is
  // (1+2+...+8)/8 + 1 = 5.5, plus 3 bits of level id.
  EXPECT_NEAR(mech.ReportBits(), 3.0 + 5.5, 1e-9);
}

TEST(Hierarchical, UserCountSeesReportsAbsorbedIntoLevelOracles) {
  // A wire server absorbs client-encoded reports straight into the level
  // oracles; the user count must include them.
  HierarchicalMechanism mech(64, 1.1, Config(4, OracleKind::kHrr, true));
  auto& level2 = dynamic_cast<HrrOracle&>(mech.level_oracle(2));
  level2.AbsorbReport(HrrReport{3, +1});
  level2.AbsorbReport(HrrReport{5, -1});
  Rng rng(1);
  mech.EncodeUser(7, rng);
  EXPECT_EQ(mech.user_count(), 3u);
}

}  // namespace
}  // namespace ldp
