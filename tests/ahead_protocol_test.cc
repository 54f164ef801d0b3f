// AHEAD wire protocol (protocol/ahead_protocol.h): report and tree
// serialization totality, the two-phase client/server exchange end to
// end, phase-era enforcement, forged node-id rejection, and batch
// accounting.

#include <gtest/gtest.h>

#include <bit>
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

// Served answers pinned bit for bit at fixed seeds: the value and stddev
// of two ranges, plus digests of (value, stddev) over every range and of
// EstimateFrequencies.
struct ServedPin {
  const char* name;
  AheadServerConfig config;
  bool drop_level2;  // no phase-2 report reaches frontier level 2
  double short_value, short_stddev;  // [3, 9]
  double long_value, long_stddev;    // [10, 50]
  uint64_t ranges_digest;
  uint64_t frequencies_digest;
};

TEST(AheadWire, ServedAnswersArePinned) {
  const uint64_t d = 64;
  const double eps = 1.0;
  ZipfDistribution dist(d, 1.2);
  Rng vrng(2024);
  std::vector<uint64_t> values(12000);
  for (uint64_t& v : values) v = dist.Sample(vrng);
  const size_t n1 = 4000;

  AheadServerConfig no_consistency;
  no_consistency.consistency = false;
  AheadServerConfig no_nonnegativity;
  no_nonnegativity.nonnegativity = false;
  AheadServerConfig full_split;
  full_split.threshold_scale = 0.0;
  AheadServerConfig capped;
  capped.max_depth = 2;
  capped.threshold_scale = 0.25;
  const std::vector<ServedPin> pins = {
      {"default", {}, false,
       0x1.ec50b7186805bp-3, 0x1.0092f702e6b87p-4,
       0x1.d7cf88a34770ep-3, 0x1.6e49ca99bf86fp-5,
       0xfb2fa3a284fc2988ULL, 0xfe3bd4d7abb3f610ULL},
      {"no_consistency", no_consistency, false,
       0x1.f3fa5f1301926p-3, 0x1.06386b48ccf73p-4,
       0x1.cd25b4e149d54p-3, 0x1.7549d10ad0896p-5,
       0x1c59e7717d411083ULL, 0x23e3d4bd12e7d8f5ULL},
      {"no_nonnegativity", no_nonnegativity, false,
       0x1.f640f624c8d64p-3, 0x1.0092f702e6b87p-4,
       0x1.b9e12e65e3bd2p-3, 0x1.6e49ca99bf86fp-5,
       0x637c198888b39949ULL, 0xdf646964ed1ed5cfULL},
      {"full_split", full_split, false,
       0x1.d7486585240aap-3, 0x1.4c8d5f31531e5p-3,
       0x1.6323610f22f61p-3, 0x1.ac2f158a4997ap-3,
       0xdddd6a40578a9c62ULL, 0xb14c60579a8321b3ULL},
      {"max_depth_2", capped, false,
       0x1.52903187fbe45p-2, 0x1.3ff19b642e76cp-5,
       0x1.c74e624d623c9p-3, 0x1.af41c335ac98fp-5,
       0xa7cf4f56a4ce30bbULL, 0xabcbbc2d83527385ULL},
      {"empty_level_2", full_split, true,
       0x1.2d00124a18a69p-2, 0x1.e8215bc263c2fp-3,
       0x1.8b330128c9cb2p-3, 0x1.16fdc6150d744p-2,
       0x79a0633579b62300ULL, 0x6911285cf0b34975ULL},
  };
  for (const ServedPin& pin : pins) {
    SCOPED_TRACE(pin.name);
    AheadServer server(d, 4, eps, pin.config);
    AheadClient client(d, 4, eps);
    Rng rng(77);
    for (size_t i = 0; i < n1; ++i) {
      ASSERT_TRUE(server.Absorb(client.EncodePhase1(values[i], rng)));
    }
    ASSERT_TRUE(client.AbsorbTreeDescription(server.BuildTree()));
    for (size_t i = n1; i < values.size(); ++i) {
      AheadWireReport report = client.EncodePhase2(values[i], rng);
      if (pin.drop_level2 && report.level == 2) continue;
      ASSERT_TRUE(server.Absorb(report));
    }
    server.Finalize();

    std::vector<double> answers;
    for (uint64_t a = 0; a < d; ++a) {
      for (uint64_t b = a; b < d; ++b) {
        RangeEstimate est = server.RangeQueryWithUncertainty(a, b);
        answers.push_back(est.value);
        answers.push_back(est.stddev);
      }
    }
    RangeEstimate short_range = server.RangeQueryWithUncertainty(3, 9);
    RangeEstimate long_range = server.RangeQueryWithUncertainty(10, 50);
    const uint64_t ranges_digest = BitDigest(answers);
    const uint64_t frequencies_digest =
        BitDigest(server.EstimateFrequencies());
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
