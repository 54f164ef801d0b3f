#include "protocol/tree_protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/hierarchical.h"
#include "protocol/level_hrr.h"
#include "protocol/report_codec.h"

namespace ldp {
namespace {

using protocol::LevelHrrReport;
using protocol::ParseError;
using protocol::LevelHrrLayout;
using protocol::ParseReport;
using protocol::SerializeReport;
using protocol::TreeHrrClient;
using protocol::TreeHrrServer;

constexpr LevelHrrLayout kTree{protocol::MechanismTag::kTreeHrr};

TEST(TreeProtocol, SerializationRoundTrip) {
  LevelHrrReport report;
  report.level = 5;
  report.inner = {1234, -1};
  LevelHrrReport back;
  ASSERT_EQ(ParseReport(kTree, SerializeReport(kTree, report), &back),
            ParseError::kOk);
  EXPECT_EQ(back.level, 5u);
  EXPECT_EQ(back.inner.coefficient_index, 1234u);
  EXPECT_EQ(back.inner.sign, -1);
}

TEST(TreeProtocol, SerializationRejectsTagsOfOtherProtocols) {
  LevelHrrReport report;
  report.level = 1;
  report.inner = {0, +1};
  LevelHrrReport out;
  // The mechanism tag lives at offset 3 of the envelope header.
  std::vector<uint8_t> v2 = SerializeReport(kTree, report);
  for (uint8_t tag : {0x01, 0x02, 0x00, 0xFF}) {
    v2[3] = tag;
    EXPECT_NE(ParseReport(kTree, v2, &out), ParseError::kOk)
        << "v2 tag " << int(tag);
  }
}

TEST(TreeProtocol, EndToEndMatchesInProcessTreeHrr) {
  // Same RNG stream and submission order: the wire path must agree with
  // HierarchicalMechanism configured for HRR + consistency.
  const uint64_t d = 64;
  const uint64_t fanout = 4;
  const double eps = 1.1;
  Rng rng_wire(3);
  Rng rng_mech(3);
  TreeHrrClient client(d, fanout, eps);
  TreeHrrServer server(d, fanout, eps, /*consistency=*/true);
  HierarchicalConfig config;
  config.fanout = fanout;
  config.oracle = OracleKind::kHrr;
  config.consistency = true;
  HierarchicalMechanism mech(d, eps, config);
  for (int i = 0; i < 30000; ++i) {
    uint64_t value = (i * 11) % d;
    ASSERT_TRUE(server.AbsorbSerialized(
        client.EncodeSerialized(value, rng_wire)));
    mech.EncodeUser(value, rng_mech);
  }
  server.Finalize();
  Rng finalize_rng(1);
  mech.Finalize(finalize_rng);
  for (uint64_t a = 0; a < d; a += 7) {
    for (uint64_t b = a; b < d; b += 6) {
      EXPECT_NEAR(server.RangeQuery(a, b), mech.RangeQuery(a, b), 1e-9)
          << "[" << a << "," << b << "]";
    }
  }
}

TEST(TreeProtocol, NoiselessAccuracy) {
  const uint64_t d = 256;
  Rng rng(4);
  TreeHrrClient client(d, 4, 60.0);
  TreeHrrServer server(d, 4, 60.0);
  for (int i = 0; i < 120000; ++i) {
    server.AbsorbSerialized(
        client.EncodeSerialized(i % 2 == 0 ? 17 : 200, rng));
  }
  server.Finalize();
  EXPECT_NEAR(server.RangeQuery(0, 63), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(192, 255), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(0, 255), 1.0, 1e-9);
  EXPECT_NEAR(server.RangeQuery(64, 191), 0.0, 0.03);
  EXPECT_EQ(server.QuantileQuery(0.25), 17u);
}

TEST(TreeProtocol, RejectsOutOfRangeLevelsAndIndices) {
  TreeHrrServer server(256, 4, 1.0);  // height 4; level l has 4^l nodes
  LevelHrrReport report;
  report.level = 5;
  report.inner = {0, +1};
  EXPECT_FALSE(server.Absorb(report));
  report.level = 2;                // 16 nodes, HRR pads to 16
  report.inner = {16, +1};
  EXPECT_FALSE(server.Absorb(report));
  report.inner = {15, +1};
  EXPECT_TRUE(server.Absorb(report));
  EXPECT_EQ(server.rejected_reports(), 2u);
  EXPECT_EQ(server.accepted_reports(), 1u);
}

TEST(TreeProtocol, ConsistencyTogglesParentChildAgreement) {
  Rng rng(5);
  const uint64_t d = 64;
  TreeHrrClient client(d, 2, 1.0);
  TreeHrrServer with_ci(d, 2, 1.0, /*consistency=*/true);
  for (int i = 0; i < 20000; ++i) {
    with_ci.AbsorbSerialized(client.EncodeSerialized(i % d, rng));
  }
  with_ci.Finalize();
  // After CI any assembly of the same range agrees: compare B-adic path
  // with leaf sums.
  std::vector<double> leaves = with_ci.EstimateFrequencies();
  double leaf_sum = 0.0;
  for (uint64_t z = 10; z <= 42; ++z) {
    leaf_sum += leaves[z];
  }
  EXPECT_NEAR(with_ci.RangeQuery(10, 42), leaf_sum, 1e-9);
}

TEST(TreeProtocol, FuzzedBytesNeverCrashServer) {
  Rng rng(6);
  TreeHrrServer server(128, 2, 1.0);
  for (int i = 0; i < 5000; ++i) {
    size_t len = rng.UniformInt(16);
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    server.AbsorbSerialized(junk);
  }
  server.Finalize();
  // Whatever was accepted, the server still serves queries.
  double answer = server.RangeQuery(0, 127);
  EXPECT_TRUE(std::isfinite(answer));
}

}  // namespace
}  // namespace ldp
