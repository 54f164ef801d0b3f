// AHEAD wire protocol (protocol/ahead_protocol.h): report and tree
// serialization totality, the two-phase client/server exchange end to
// end, phase-era enforcement, forged node-id rejection, and batch
// accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "data/distributions.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/wire.h"

namespace ldp {
namespace {

using protocol::AheadClient;
using protocol::AheadLayout;
using protocol::AheadServer;
using protocol::AheadServerConfig;
using protocol::AheadWireReport;
using protocol::MechanismTag;
using protocol::ParseError;

TEST(AheadWire, SingleReportRoundTrips) {
  for (const AheadWireReport report :
       {AheadWireReport{1, 2, 37}, AheadWireReport{2, 3, 12345}}) {
    std::vector<uint8_t> bytes =
        protocol::SerializeReport(AheadLayout{}, report);
    AheadWireReport back;
    ASSERT_EQ(protocol::ParseReport(AheadLayout{}, bytes, &back),
              ParseError::kOk);
    EXPECT_EQ(back, report);
  }
}

TEST(AheadWire, ParserRejectsStructurallyInvalidReports) {
  // Both phases carry a 1-based level; level 0 or an unknown phase is
  // malformed at the parser, before the server sees it.
  AheadWireReport back;
  for (uint8_t phase : {uint8_t{1}, uint8_t{2}}) {
    std::vector<uint8_t> bytes =
        protocol::SerializeReport(AheadLayout{}, AheadWireReport{phase, 1, 5});
    bytes[protocol::kEnvelopeHeaderSize + 1] = 0;  // level 0
    EXPECT_EQ(protocol::ParseReport(AheadLayout{}, bytes, &back),
              ParseError::kBadPayload);
  }
  std::vector<uint8_t> bad_phase =
      protocol::SerializeReport(AheadLayout{}, AheadWireReport{2, 1, 5});
  bad_phase[protocol::kEnvelopeHeaderSize] = 7;  // unknown phase
  EXPECT_EQ(protocol::ParseReport(AheadLayout{}, bad_phase, &back),
            ParseError::kBadPayload);
}

TEST(AheadWire, TruncationAtEveryOffsetIsRejected) {
  std::vector<uint8_t> bytes =
      protocol::SerializeReport(AheadLayout{}, AheadWireReport{2, 2, 99});
  AheadWireReport back;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_NE(protocol::ParseReport(AheadLayout{}, prefix, &back),
              ParseError::kOk)
        << "cut at " << cut;
  }
}

TEST(AheadWire, BatchRoundTripsAndCountsMalformedItems) {
  std::vector<AheadWireReport> reports = {
      {1, 3, 1}, {2, 1, 2}, {2, 2, 3}};
  std::vector<uint8_t> bytes =
      protocol::SerializeReportBatch(AheadLayout{}, reports);
  std::vector<AheadWireReport> back;
  uint64_t malformed = 7;
  ASSERT_EQ(
      protocol::ParseReportBatch(AheadLayout{}, bytes, &back, &malformed),
      ParseError::kOk);
  EXPECT_EQ(back, reports);
  EXPECT_EQ(malformed, 0u);

  // Corrupt the middle item's phase byte: it must be skipped and counted
  // while the items around it still parse.
  std::vector<uint8_t> corrupt = bytes;
  size_t item1 = protocol::kEnvelopeHeaderSize + 1 + 10;  // count + item 0
  corrupt[item1] = 9;
  ASSERT_EQ(
      protocol::ParseReportBatch(AheadLayout{}, corrupt, &back, &malformed),
      ParseError::kOk);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], reports[0]);
  EXPECT_EQ(back[1], reports[2]);
  EXPECT_EQ(malformed, 1u);
}

TEST(AheadWire, TreeDescriptionRoundTrips) {
  TreeShape shape(100, 2);
  AdaptiveTree tree = AdaptiveTree::Grow(
      shape, 0, [](const TreeNode& n) { return n.index % 3 == 0; });
  std::vector<uint8_t> bytes = protocol::SerializeAheadTree(100, 2, tree);
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> back;
  ASSERT_EQ(protocol::ParseAheadTree(bytes, &domain, &fanout, &back),
            ParseError::kOk);
  EXPECT_EQ(domain, 100u);
  EXPECT_EQ(fanout, 2u);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->SplitNodes(), tree.SplitNodes());
  EXPECT_EQ(back->num_levels(), tree.num_levels());
}

TEST(AheadWire, TreeParserRejectsForgeries) {
  TreeShape shape(64, 4);
  AdaptiveTree tree =
      AdaptiveTree::Grow(shape, 0, [](const TreeNode&) { return true; });
  std::vector<uint8_t> good = protocol::SerializeAheadTree(64, 4, tree);
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> out;

  // Truncations at every offset.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> prefix(good.begin(), good.begin() + cut);
    EXPECT_NE(protocol::ParseAheadTree(prefix, &domain, &fanout, &out),
              ParseError::kOk);
  }
  // A fanout beyond the hard cap must be rejected before any
  // reconstruction work.
  {
    std::vector<uint8_t> payload;
    protocol::AppendVarU64(payload, 64);       // domain
    protocol::AppendVarU64(payload, 1 << 20);  // absurd fanout
    protocol::AppendVarU64(payload, 0);
    std::vector<uint8_t> bytes =
        protocol::EncodeEnvelope(MechanismTag::kAheadTree, payload);
    EXPECT_EQ(protocol::ParseAheadTree(bytes, &domain, &fanout, &out),
              ParseError::kBadPayload);
  }
  // An orphan split (parent absent) must be rejected.
  {
    std::vector<uint8_t> payload;
    protocol::AppendVarU64(payload, 64);
    protocol::AppendVarU64(payload, 4);
    protocol::AppendVarU64(payload, 2);
    protocol::AppendU8(payload, 0);  // root
    protocol::AppendVarU64(payload, 0);
    protocol::AppendU8(payload, 2);  // depth-2 split, depth-1 parent absent
    protocol::AppendVarU64(payload, 5);
    std::vector<uint8_t> bytes =
        protocol::EncodeEnvelope(MechanismTag::kAheadTree, payload);
    EXPECT_EQ(protocol::ParseAheadTree(bytes, &domain, &fanout, &out),
              ParseError::kBadPayload);
  }
}

TEST(AheadWire, ServerEnforcesPhaseEras) {
  AheadServer server(64, 4, 1.0);
  Rng rng(1);
  AheadClient client(64, 4, 1.0);

  // Phase-2 reports before the tree broadcast are rejected and counted.
  EXPECT_FALSE(server.Absorb(AheadWireReport{2, 1, 0}));
  EXPECT_EQ(server.rejected_reports(), 1u);

  EXPECT_TRUE(server.Absorb(client.EncodePhase1(7, rng)));
  std::vector<uint8_t> tree_msg = server.BuildTree();
  ASSERT_TRUE(client.AbsorbTreeDescription(tree_msg));

  // Phase-1 reports after the broadcast are stale and rejected.
  EXPECT_FALSE(server.Absorb(client.EncodePhase1(7, rng)));
  EXPECT_TRUE(server.Absorb(client.EncodePhase2(7, rng)));
  EXPECT_EQ(server.accepted_reports(), 2u);
  EXPECT_EQ(server.rejected_reports(), 2u);
  EXPECT_EQ(server.phase1_reports(), 1u);
  EXPECT_EQ(server.phase2_reports(), 1u);
}

TEST(AheadWire, ServerRejectsForgedNodeIds) {
  AheadServer server(64, 4, 1.0);  // complete-tree height 3
  // Phase 1: level beyond the tree, node beyond its level's domain.
  EXPECT_FALSE(server.Absorb(AheadWireReport{1, 4, 0}));
  EXPECT_FALSE(server.Absorb(AheadWireReport{1, 1, 4}));
  EXPECT_TRUE(server.Absorb(AheadWireReport{1, 3, 63}));
  server.BuildTree();
  const AdaptiveTree& tree = server.tree();
  // Phase 2: level beyond the tree, node beyond the frontier.
  EXPECT_FALSE(server.Absorb(
      AheadWireReport{2, tree.num_levels() + 1, 0}));
  EXPECT_FALSE(
      server.Absorb(AheadWireReport{2, 1, tree.FrontierSize(1)}));
  EXPECT_TRUE(server.Absorb(
      AheadWireReport{2, 1, tree.FrontierSize(1) - 1}));
  EXPECT_EQ(server.accepted_reports(), 2u);
  EXPECT_EQ(server.rejected_reports(), 4u);
}

TEST(AheadWire, ClientRejectsMismatchedTreeBroadcast) {
  AheadServer server(64, 4, 1.0);
  server.Absorb(AheadWireReport{1, 1, 3});
  std::vector<uint8_t> tree_msg = server.BuildTree();
  AheadClient wrong_domain(128, 4, 1.0);
  EXPECT_FALSE(wrong_domain.AbsorbTreeDescription(tree_msg));
  AheadClient wrong_fanout(64, 2, 1.0);
  EXPECT_FALSE(wrong_fanout.AbsorbTreeDescription(tree_msg));
  AheadClient right(64, 4, 1.0);
  EXPECT_TRUE(right.AbsorbTreeDescription(tree_msg));
  EXPECT_TRUE(right.has_tree());
}

TEST(AheadWire, BatchAbsorbMatchesLoopAndAccounts) {
  const uint64_t d = 256;
  const double eps = 1.0;
  std::vector<uint64_t> values(500);
  Rng vrng(5);
  for (uint64_t& v : values) v = vrng.UniformInt(d);

  AheadServer loop_server(d, 4, eps);
  AheadServer batch_server(d, 4, eps);
  AheadClient client(d, 4, eps);
  Rng rng1(9);
  for (uint64_t v : values) {
    AheadWireReport r = client.EncodePhase1(v, rng1);
    loop_server.Absorb(r);
    batch_server.Absorb(r);
  }
  ASSERT_TRUE(client.AbsorbTreeDescription(loop_server.BuildTree()));
  batch_server.BuildTree();  // same aggregates -> identical tree
  ASSERT_EQ(batch_server.tree().SplitNodes(),
            loop_server.tree().SplitNodes());

  Rng rng_l(13);
  for (uint64_t v : values) {
    loop_server.Absorb(client.EncodePhase2(v, rng_l));
  }
  Rng rng_b(13);
  std::vector<uint8_t> batch =
      client.EncodePhase2UsersSerialized(values, rng_b);
  uint64_t accepted = 0;
  ASSERT_EQ(batch_server.AbsorbBatchSerialized(batch, &accepted),
            ParseError::kOk);
  EXPECT_EQ(accepted, values.size());

  loop_server.Finalize();
  batch_server.Finalize();
  EXPECT_EQ(batch_server.accepted_reports(), loop_server.accepted_reports());
  EXPECT_EQ(batch_server.EstimateFrequencies(),
            loop_server.EstimateFrequencies());
}

TEST(AheadWire, TwoPhaseExchangeRecoversTheDistribution) {
  // Full deployment shape: phase-1 cohort -> tree broadcast -> phase-2
  // cohort -> queries, everything crossing the wire as serialized bytes.
  const uint64_t d = 64;
  const double eps = 2.0;
  const uint64_t n = 60000;
  AheadServer server(d, 4, eps);
  AheadClient client(d, 4, eps);
  ZipfDistribution dist(d, 1.2);
  Rng rng(31);

  std::vector<uint64_t> all_values(n);
  for (uint64_t& v : all_values) v = dist.Sample(rng);
  const uint64_t n1 = n / 5;
  for (uint64_t i = 0; i < n1; ++i) {
    ASSERT_TRUE(server.AbsorbSerialized(
        client.EncodePhase1Serialized(all_values[i], rng)));
  }
  ASSERT_TRUE(client.AbsorbTreeDescription(server.BuildTree()));
  std::span<const uint64_t> phase2(all_values.begin() + n1,
                                   all_values.end());
  uint64_t accepted = 0;
  ASSERT_EQ(server.AbsorbBatchSerialized(
                client.EncodePhase2UsersSerialized(phase2, rng), &accepted),
            ParseError::kOk);
  EXPECT_EQ(accepted, phase2.size());
  server.Finalize();

  std::vector<double> truth(d, 0.0);
  for (uint64_t v : all_values) truth[v] += 1.0 / static_cast<double>(n);
  for (auto [a, b] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 15}, {0, 63}, {10, 40}, {32, 63}}) {
    double t = std::accumulate(truth.begin() + a, truth.begin() + b + 1,
                               0.0);
    EXPECT_NEAR(server.RangeQuery(a, b), t, 0.1)
        << "[" << a << ", " << b << "]";
  }
  uint64_t median = server.QuantileQuery(0.5);
  double cdf = std::accumulate(truth.begin(), truth.begin() + median + 1,
                               0.0);
  EXPECT_NEAR(cdf, 0.5, 0.15);
}

TEST(AheadWire, FinalizeWithoutReportsStaysFinite) {
  AheadServer server(64, 4, 1.0);
  server.Finalize();  // auto-builds a tree from zero phase-1 signal
  double total = server.RangeQuery(0, 63);
  EXPECT_TRUE(std::isfinite(total));
  std::vector<double> freqs = server.EstimateFrequencies();
  for (double f : freqs) EXPECT_TRUE(std::isfinite(f));
}

}  // namespace
}  // namespace ldp
