// AHEAD adaptive hierarchical decomposition (core/ahead.h): tree-shape
// invariants, the degenerate full-split equivalence with fixed-fanout
// HH_B, unbiasedness of range estimates, and the PR 2 batch/shard
// ingestion contracts (EncodeUsers bit-identity, thread-count-invariant
// EncodeUsersSharded, MergeFrom compatibility).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "core/hierarchical.h"
#include "core/method.h"
#include "data/distributions.h"
#include "data/workload.h"
#include "eval/experiment.h"

namespace ldp {
namespace {

std::vector<uint64_t> SampleValues(const ValueDistribution& dist, uint64_t n,
                                   uint64_t seed) {
  std::vector<uint64_t> values(n);
  Rng rng(seed);
  for (uint64_t& v : values) v = dist.Sample(rng);
  return values;
}

// --- AdaptiveTree shape ---------------------------------------------------

TEST(AdaptiveTree, FullSplitMatchesCompleteTree) {
  TreeShape shape(64, 4);  // height 3
  AdaptiveTree tree = AdaptiveTree::Grow(
      shape, 0, [](const TreeNode&) { return true; });
  EXPECT_EQ(tree.nodes().size(), shape.TotalNodes());
  EXPECT_EQ(tree.num_levels(), shape.height());
  for (uint32_t l = 1; l <= shape.height(); ++l) {
    EXPECT_EQ(tree.FrontierSize(l), shape.NodesAtLevel(l));
    // On a complete tree, frontier position == complete-tree node index.
    for (uint64_t z = 0; z < shape.padded_domain(); z += 7) {
      EXPECT_EQ(tree.FrontierIndex(l, z), shape.NodeContaining(l, z));
    }
  }
}

TEST(AdaptiveTree, FrontiersPartitionTheDomain) {
  TreeShape shape(100, 2);  // padded to 128, height 7
  // Split only the left spine: node (l, 0) for every level.
  AdaptiveTree tree = AdaptiveTree::Grow(
      shape, 0, [](const TreeNode& n) { return n.index == 0; });
  EXPECT_EQ(tree.num_levels(), shape.height());
  for (uint32_t l = 1; l <= tree.num_levels(); ++l) {
    uint64_t covered = 0;
    uint64_t expect_start = 0;
    for (uint64_t j = 0; j < tree.FrontierSize(l); ++j) {
      const AdaptiveNode& n = tree.nodes()[tree.FrontierNode(l, j)];
      EXPECT_EQ(n.block_start, expect_start);  // contiguous, left to right
      covered += n.block_length();
      expect_start = n.block_end;
    }
    EXPECT_EQ(covered, shape.padded_domain());
    // Every value maps into the frontier element that contains it.
    for (uint64_t z = 0; z < shape.padded_domain(); z += 11) {
      uint64_t j = tree.FrontierIndex(l, z);
      const AdaptiveNode& n = tree.nodes()[tree.FrontierNode(l, j)];
      EXPECT_GE(z, n.block_start);
      EXPECT_LT(z, n.block_end);
    }
  }
}

TEST(AdaptiveTree, MaxDepthCapsTheSplit) {
  TreeShape shape(256, 4);  // height 4
  AdaptiveTree tree = AdaptiveTree::Grow(
      shape, 2, [](const TreeNode&) { return true; });
  EXPECT_EQ(tree.num_levels(), 2u);
  for (const AdaptiveNode& n : tree.nodes()) {
    EXPECT_LE(n.node.level, 2u);
    if (n.node.level == 2) {
      EXPECT_TRUE(n.is_leaf());
    }
  }
}

TEST(AdaptiveTree, SplitNodesRoundTripsThroughTryFromSplits) {
  TreeShape shape(64, 2);
  AdaptiveTree tree = AdaptiveTree::Grow(
      shape, 0, [](const TreeNode& n) { return (n.index & 1) == 0; });
  std::vector<TreeNode> splits = tree.SplitNodes();
  auto rebuilt = AdaptiveTree::TryFromSplits(shape, splits);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->SplitNodes(), splits);
  EXPECT_EQ(rebuilt->nodes().size(), tree.nodes().size());
  EXPECT_EQ(rebuilt->num_levels(), tree.num_levels());
}

TEST(AdaptiveTree, TryFromSplitsRejectsMalformedSets) {
  TreeShape shape(64, 2);
  const TreeNode root{0, 0};
  // Empty, missing root, orphan (parent not split), duplicate / unsorted,
  // out-of-range coordinates.
  EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, {}).has_value());
  {
    std::vector<TreeNode> s = {{1, 0}};
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {2, 1}};  // (1, 0) missing
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {1, 0}, {1, 0}};
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {1, 1}, {1, 0}};
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {1, 2}};  // index out of range
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {6, 0}};  // leaf level cannot split
    EXPECT_FALSE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
  {
    std::vector<TreeNode> s = {root, {1, 0}};
    EXPECT_TRUE(AdaptiveTree::TryFromSplits(shape, s).has_value());
  }
}

// --- Mechanism: degenerate equivalence ------------------------------------

TEST(Ahead, ForcedFullSplitBuildsTheCompleteTree) {
  AheadConfig config;
  config.fanout = 4;
  config.threshold_scale = -1.0;  // <= 0: split unconditionally
  AheadMechanism mech(256, 1.0, config);
  std::vector<uint64_t> values(5000);
  Rng vrng(3);
  for (uint64_t& v : values) v = vrng.UniformInt(256);
  Rng rng(7);
  mech.EncodeUsers(values, rng);
  Rng fin(11);
  mech.Finalize(fin);
  EXPECT_EQ(mech.tree().nodes().size(), mech.shape().TotalNodes());
  EXPECT_EQ(mech.tree().num_levels(), mech.shape().height());
}

TEST(Ahead, DegenerateFullSplitAgreesWithFixedFanoutWithinNoise) {
  // When the threshold forces a full split the AHEAD tree IS the complete
  // B-ary tree, so AHEAD and HHc_B estimate the same node masses — AHEAD
  // with fewer phase-2 users and an extra carried-leaf average at the leaf
  // level, hence agreement within the combined noise, not bitwise.
  const uint64_t d = 1024;
  const double eps = 1.0;
  const uint64_t n = 120000;
  ZipfDistribution dist(d, 1.1);
  std::vector<uint64_t> values = SampleValues(dist, n, 21);

  AheadConfig config;
  config.fanout = 4;
  config.threshold_scale = -1.0;
  config.nonnegativity = false;  // keep both pipelines linear/unbiased
  AheadMechanism ahead(d, eps, config);
  Rng arng(31);
  ahead.EncodeUsers(values, arng);
  Rng afin(41);
  ahead.Finalize(afin);

  HierarchicalConfig hh_config;
  hh_config.fanout = 4;
  hh_config.consistency = true;
  HierarchicalMechanism hh(d, eps, hh_config);
  Rng hrng(32);
  hh.EncodeUsers(values, hrng);
  Rng hfin(42);
  hh.Finalize(hfin);

  std::vector<double> truth(d, 0.0);
  for (uint64_t v : values) truth[v] += 1.0 / static_cast<double>(n);

  QueryWorkload::Random(60, 5).Visit(d, [&](uint64_t a, uint64_t b) {
    double t = std::accumulate(truth.begin() + a, truth.begin() + b + 1, 0.0);
    RangeEstimate ae = ahead.RangeQueryWithUncertainty(a, b);
    RangeEstimate he = hh.RangeQueryWithUncertainty(a, b);
    double tol = 5.0 * std::sqrt(ae.stddev * ae.stddev +
                                 he.stddev * he.stddev) +
                 1e-9;
    EXPECT_NEAR(ae.value, he.value, tol) << "[" << a << ", " << b << "]";
    EXPECT_NEAR(ae.value, t, 5.0 * ae.stddev + 1e-9);
  });
}

// --- Mechanism: unbiasedness ----------------------------------------------

TEST(Ahead, RangeEstimatesAreUnbiasedOverTrials) {
  // Uniform data (so the uniform-within-leaf assumption is exact), the
  // linear post-processing only (nonnegativity clamping is the one biased
  // step and is switched off): the mean error over independent trials
  // must be statistically indistinguishable from zero.
  const uint64_t d = 256;
  const double eps = 1.0;
  const uint64_t n = 20000;
  const int trials = 30;
  UniformDistribution dist(d);
  struct Range {
    uint64_t a, b;
  };
  const std::vector<Range> ranges = {{0, 63}, {10, 200}, {128, 255}, {7, 7}};

  std::vector<double> mean_err(ranges.size(), 0.0);
  std::vector<double> mean_var(ranges.size(), 0.0);
  for (int t = 0; t < trials; ++t) {
    std::vector<uint64_t> values = SampleValues(dist, n, 1000 + t);
    std::vector<double> truth(d, 0.0);
    for (uint64_t v : values) truth[v] += 1.0 / static_cast<double>(n);
    AheadConfig config;
    config.fanout = 4;
    config.nonnegativity = false;
    AheadMechanism mech(d, eps, config);
    Rng rng(2000 + t);
    mech.EncodeUsers(values, rng);
    Rng fin(3000 + t);
    mech.Finalize(fin);
    for (size_t q = 0; q < ranges.size(); ++q) {
      double truth_q = std::accumulate(truth.begin() + ranges[q].a,
                                       truth.begin() + ranges[q].b + 1, 0.0);
      RangeEstimate est =
          mech.RangeQueryWithUncertainty(ranges[q].a, ranges[q].b);
      mean_err[q] += (est.value - truth_q) / trials;
      mean_var[q] += est.stddev * est.stddev / trials;
    }
  }
  for (size_t q = 0; q < ranges.size(); ++q) {
    // Std error of the trial mean; 4 sigma keeps the flake rate negligible.
    double se = std::sqrt(mean_var[q] / trials);
    EXPECT_LE(std::abs(mean_err[q]), 4.0 * se)
        << "range [" << ranges[q].a << ", " << ranges[q].b << "]";
  }
}

TEST(Ahead, EstimateFrequenciesSumsToOne) {
  AheadMechanism mech(128, 1.0, AheadConfig{});
  ZipfDistribution dist(128, 1.2);
  std::vector<uint64_t> values = SampleValues(dist, 30000, 5);
  Rng rng(6);
  mech.EncodeUsers(values, rng);
  Rng fin(7);
  mech.Finalize(fin);
  std::vector<double> freqs = mech.EstimateFrequencies();
  ASSERT_EQ(freqs.size(), 128u);
  double total = std::accumulate(freqs.begin(), freqs.end(), 0.0);
  // Consistency pins the root to 1; the padded cells outside the domain
  // carry only noise mass, clamped non-negative.
  EXPECT_NEAR(total, 1.0, 0.05);
  for (double f : freqs) EXPECT_GE(f, 0.0);  // nonnegativity (default on)
}

// --- Batch / shard ingestion contracts ------------------------------------

TEST(Ahead, EncodeUsersMatchesEncodeUserLoop) {
  const uint64_t d = 128;
  std::vector<uint64_t> values = SampleValues(UniformDistribution(d), 3000, 9);
  AheadMechanism loop(d, 1.1, AheadConfig{});
  AheadMechanism batch(d, 1.1, AheadConfig{});
  Rng rng_l(17);
  Rng rng_b(17);
  for (uint64_t v : values) loop.EncodeUser(v, rng_l);
  batch.EncodeUsers(values, rng_b);
  EXPECT_EQ(batch.user_count(), loop.user_count());
  EXPECT_EQ(batch.phase1_user_count(), loop.phase1_user_count());
  Rng fin_l(99);
  Rng fin_b(99);
  loop.Finalize(fin_l);
  batch.Finalize(fin_b);
  EXPECT_EQ(batch.EstimateFrequencies(), loop.EstimateFrequencies());
}

TEST(Ahead, ShardedIngestionIsThreadCountInvariant) {
  // The acceptance bar: 1, 4 and 8 worker threads must produce
  // bit-identical aggregates (and therefore bit-identical estimates given
  // the same Finalize Rng).
  const uint64_t d = 256;
  ZipfDistribution dist(d, 1.1);
  std::vector<uint64_t> values = SampleValues(dist, 50000, 13);
  std::vector<std::vector<double>> freqs;
  std::vector<uint64_t> phase1_counts;
  for (unsigned threads : {1u, 4u, 8u}) {
    AheadMechanism mech(d, 1.0, AheadConfig{});
    EncodeUsersSharded(mech, values, /*seed=*/2026, threads);
    EXPECT_EQ(mech.user_count(), values.size());
    phase1_counts.push_back(mech.phase1_user_count());
    Rng fin(7);
    mech.Finalize(fin);
    freqs.push_back(mech.EstimateFrequencies());
  }
  EXPECT_EQ(phase1_counts[0], phase1_counts[1]);
  EXPECT_EQ(phase1_counts[0], phase1_counts[2]);
  EXPECT_EQ(freqs[0], freqs[1]);
  EXPECT_EQ(freqs[0], freqs[2]);
}

TEST(Ahead, MergeFromRejectsIncompatibleMechanisms) {
  AheadConfig config;
  AheadMechanism a(64, 1.0, config);
  config.fanout = 2;
  AheadMechanism b(64, 1.0, config);
  EXPECT_DEATH(a.MergeFrom(b), "fanout");
  HierarchicalConfig hh_config;
  HierarchicalMechanism hh(64, 1.0, hh_config);
  EXPECT_DEATH(a.MergeFrom(hh), "AheadMechanism");
}

// --- Pinned answers -------------------------------------------------------

// FNV-1a over the bit patterns of `values`: a bit-for-bit digest.
uint64_t BitDigest(std::span<const double> values) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((bits >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Ahead, InProcessAnswersArePinned) {
  // In-process answers at fixed seeds, bit for bit: AHEAD4 (OUE
  // simulated, the path the section 5 simulation runs) and AHEAD4-GRR.
  struct Pin {
    OracleKind oracle;
    double short_value, short_stddev;  // [5, 40]
    double long_value, long_stddev;    // [100, 200]
    uint64_t ranges_digest;
    uint64_t frequencies_digest;
  };
  const uint64_t d = 256;
  ZipfDistribution dist(d, 1.1);
  std::vector<uint64_t> values = SampleValues(dist, 20000, 61);
  const Pin pins[] = {
      {OracleKind::kOueSimulated,
       0x1.63ebb186f695cp-2, 0x1.09e4f41338963p-4,
       0x1.31402d1647c5ap-4, 0x1.d04ddd58d4ac7p-5,
       0x257390b4ff1ea485ULL, 0x468ad99da9c9c2efULL},
      {OracleKind::kGrr,
       0x1.18276f0b15795p-2, 0x1.8df864a3f74c3p-4,
       0x1.8c914e59c7acbp-4, 0x1.201eb785ffe3bp-4,
       0x0c824f946a98f863ULL, 0xd52ff6a532e61cb1ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(OracleKindName(pin.oracle));
    AheadConfig config;
    config.oracle = pin.oracle;
    AheadMechanism mech(d, 1.0, config);
    Rng rng(7);
    mech.EncodeUsers(values, rng);
    Rng fin(11);
    mech.Finalize(fin);

    std::vector<double> answers;
    for (uint64_t a = 0; a < d; ++a) {
      for (uint64_t b = a; b < d; ++b) {
        RangeEstimate est = mech.RangeQueryWithUncertainty(a, b);
        answers.push_back(est.value);
        answers.push_back(est.stddev);
      }
    }
    RangeEstimate short_range = mech.RangeQueryWithUncertainty(5, 40);
    RangeEstimate long_range = mech.RangeQueryWithUncertainty(100, 200);
    const uint64_t ranges_digest = BitDigest(answers);
    const uint64_t frequencies_digest = BitDigest(mech.EstimateFrequencies());
    EXPECT_EQ(std::bit_cast<uint64_t>(short_range.value),
              std::bit_cast<uint64_t>(pin.short_value));
    EXPECT_EQ(std::bit_cast<uint64_t>(short_range.stddev),
              std::bit_cast<uint64_t>(pin.short_stddev));
    EXPECT_EQ(std::bit_cast<uint64_t>(long_range.value),
              std::bit_cast<uint64_t>(pin.long_value));
    EXPECT_EQ(std::bit_cast<uint64_t>(long_range.stddev),
              std::bit_cast<uint64_t>(pin.long_stddev));
    EXPECT_EQ(ranges_digest, pin.ranges_digest);
    EXPECT_EQ(frequencies_digest, pin.frequencies_digest);
  }
}

// --- Integration ----------------------------------------------------------

TEST(Ahead, AdaptiveTreeIsCoarserOnSkewedData) {
  // Zipf mass concentrates near 0; the threshold should refuse to split
  // the noise-level right side of the domain, making the adaptive tree
  // strictly smaller than the complete tree.
  const uint64_t d = 4096;
  ZipfDistribution dist(d, 1.3);
  std::vector<uint64_t> values = SampleValues(dist, 100000, 17);
  AheadConfig config;
  config.fanout = 4;
  AheadMechanism mech(d, 1.0, config);
  Rng rng(19);
  mech.EncodeUsers(values, rng);
  Rng fin(23);
  mech.Finalize(fin);
  EXPECT_LT(mech.tree().nodes().size(), mech.shape().TotalNodes() / 2);
  EXPECT_GE(mech.tree().num_levels(), 1u);
}

TEST(Ahead, RunsThroughTheExperimentHarness) {
  ExperimentConfig config;
  config.domain = 256;
  config.population = 30000;
  config.epsilon = 1.1;
  config.method = MethodSpec::Ahead(4);
  config.trials = 2;
  config.threads = 1;
  config.encode_threads = 4;  // exercise the sharded path end to end
  ZipfDistribution dist(config.domain, 1.1);
  ExperimentResult result =
      RunRangeExperiment(config, dist, QueryWorkload::Random(50, 3));
  EXPECT_TRUE(std::isfinite(result.mean_mse()));
  EXPECT_LT(result.mean_mse(), 0.05);
  EXPECT_EQ(config.method.Name(), "AHEAD4");
}

TEST(Ahead, BeatsFixedFanoutOnSkewedDataAtScale) {
  // A deterministic miniature of the bench acceptance bar (full scale —
  // D = 2^16, 200k users — lives in bench_micro_ahead): on Zipf-skewed
  // data the adaptive tree spends its phase-2 budget on the populated
  // region and answers sparse ranges with single carried leaves.
  const uint64_t d = 1 << 12;
  const double eps = 1.0;
  const uint64_t n = 150000;
  ZipfDistribution dist(d, 1.1);
  std::vector<uint64_t> values = SampleValues(dist, n, 77);
  std::vector<double> truth(d, 0.0);
  for (uint64_t v : values) truth[v] += 1.0 / static_cast<double>(n);

  auto mse_for = [&](RangeMechanism& mech, uint64_t seed) {
    Rng rng(seed);
    mech.EncodeUsers(values, rng);
    Rng fin(seed + 1);
    mech.Finalize(fin);
    double se = 0.0;
    uint64_t count = 0;
    QueryWorkload::Random(200, 9).Visit(d, [&](uint64_t a, uint64_t b) {
      double t =
          std::accumulate(truth.begin() + a, truth.begin() + b + 1, 0.0);
      double e = mech.RangeQuery(a, b) - t;
      se += e * e;
      ++count;
    });
    return se / static_cast<double>(count);
  };

  AheadMechanism ahead(d, eps, AheadConfig{});
  HierarchicalConfig hh_config;
  hh_config.fanout = 4;
  HierarchicalMechanism hh(d, eps, hh_config);
  double ahead_mse = mse_for(ahead, 101);
  double hh_mse = mse_for(hh, 103);
  EXPECT_LT(ahead_mse, hh_mse);
}

}  // namespace
}  // namespace ldp
