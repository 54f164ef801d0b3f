// The shared report codec (protocol/report_codec.h) from the server side:
// for every report family, one batch message and the same items sent as
// single-report messages must land identically — the same accepted and
// rejected counts and byte-identical state snapshots. Each batch mixes
// valid items, malformed slots (the layout's Read refuses them) and
// decodable but out-of-range items (the server's Absorb refuses them).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/report_codec.h"
#include "protocol/tree_protocol.h"
#include "service/server_factory.h"

namespace ldp {
namespace {

using protocol::MechanismTag;
using protocol::ParseError;
using service::ServerKind;
using service::ServerSpec;

using Bytes = std::vector<uint8_t>;

// One batch message, the same items as single-report messages, and what
// the server must count for them.
struct Messages {
  Bytes batch;
  std::vector<Bytes> singles;
  uint64_t valid = 0;
};

// Serializes `items` both ways, then breaks the items at `malformed` with
// `corrupt`, applied to the item's bytes in the batch and in its single
// message alike. The first `valid` items must be accepted.
template <typename Layout>
Messages Build(const Layout& layout,
               const std::vector<typename Layout::Item>& items,
               uint64_t valid, std::vector<size_t> malformed,
               const std::function<void(std::span<uint8_t>)>& corrupt) {
  const size_t item_size = layout.item_size();
  Messages out;
  out.batch = protocol::SerializeReportBatch(layout, items);
  const size_t items_begin = out.batch.size() - items.size() * item_size;
  for (size_t i = 0; i < items.size(); ++i) {
    out.singles.push_back(protocol::SerializeReport(layout, items[i]));
  }
  for (size_t i : malformed) {
    corrupt(std::span<uint8_t>(out.batch).subspan(items_begin + i * item_size,
                                                  item_size));
    Bytes& single = out.singles[i];
    corrupt(std::span<uint8_t>(single).subspan(single.size() - item_size));
  }
  out.valid = valid - malformed.size();
  return out;
}

std::vector<uint64_t> Values(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  Rng rng(0x5EED);
  for (uint64_t i = 0; i < n; ++i) values.push_back(rng.UniformInt(domain));
  return values;
}

constexpr uint64_t kDomain = 64;
constexpr double kEps = 1.0;
// Slots 1 and 5 of the valid prefix are corrupted in every case.
const std::vector<size_t> kMalformed = {1, 5};

Messages FlatMessages() {
  Rng rng(1);
  std::vector<HrrReport> items =
      protocol::FlatHrrClient(kDomain, kEps).EncodeUsers(Values(40, kDomain),
                                                         rng);
  const uint64_t valid = items.size();
  items.push_back({uint64_t{1} << 20, +1});  // index past the domain
  return Build(protocol::HrrLayout{}, items, valid, kMalformed,
               [](std::span<uint8_t> item) { item[8] = 2; });  // sign byte
}

Messages LevelHrrMessages(MechanismTag tag,
                          std::vector<protocol::LevelHrrReport> items) {
  const uint64_t valid = items.size();
  items.push_back({40, {0, +1}});                 // level past the height
  items.push_back({1, {uint64_t{1} << 20, -1}});  // index past the level
  return Build(protocol::LevelHrrLayout{tag}, items, valid, kMalformed,
               [](std::span<uint8_t> item) { item[0] = 0; });  // level 0
}

Messages HaarMessages() {
  Rng rng(2);
  return LevelHrrMessages(
      MechanismTag::kHaarHrr,
      protocol::HaarHrrClient(kDomain, kEps).EncodeUsers(Values(40, kDomain),
                                                         rng));
}

Messages TreeMessages() {
  Rng rng(3);
  return LevelHrrMessages(
      MechanismTag::kTreeHrr,
      protocol::TreeHrrClient(kDomain, 4, kEps)
          .EncodeUsers(Values(40, kDomain), rng));
}

Messages AheadMessages() {
  Rng rng(4);
  protocol::AheadClient client(kDomain, 4, kEps);
  std::vector<protocol::AheadWireReport> items;
  for (uint64_t v : Values(40, kDomain)) {
    items.push_back(client.EncodePhase1(v, rng));
  }
  const uint64_t valid = items.size();
  items.push_back({1, 1, 1000});  // node past the level's node count
  items.push_back({2, 1, 0});     // phase 2 before the tree exists
  return Build(protocol::AheadLayout{}, items, valid, kMalformed,
               [](std::span<uint8_t> item) { item[0] = 9; });  // phase
}

Messages GridMessages() {
  Rng rng(5);
  protocol::MultiDimClient client(16, 2, kEps, /*fanout=*/2);
  std::vector<uint64_t> coords = Values(80, 16);
  std::vector<protocol::MultiDimReport> items = client.EncodeUsers(coords, rng);
  const uint64_t valid = items.size();
  protocol::MultiDimReport bad_cell = items[0];
  bad_cell.cell = 0xFFFFFFFFu;  // past the OLH hash range
  protocol::MultiDimReport bad_level = items[0];
  bad_level.levels = {200, 1};  // past the tree height
  items.push_back(bad_cell);
  items.push_back(bad_level);
  return Build(protocol::MultiDimLayout{2}, items, valid, kMalformed,
               [](std::span<uint8_t> item) {
                 item[0] = 0;  // the all-root level tuple
                 item[1] = 0;
               });
}

struct IngestCase {
  std::string name;
  ServerSpec spec;
  Messages (*messages)();
};

void PrintTo(const IngestCase& c, std::ostream* os) { *os << c.name; }

class SingleAndBatchIngestTest : public ::testing::TestWithParam<IngestCase> {
};

TEST_P(SingleAndBatchIngestTest, AgreeOnAccountingAndState) {
  const IngestCase& c = GetParam();
  const Messages messages = c.messages();
  const uint64_t items = messages.singles.size();

  auto single = service::MakeAggregatorServer(c.spec);
  for (const Bytes& message : messages.singles) {
    single->AbsorbSerialized(message);
  }
  auto batch = service::MakeAggregatorServer(c.spec);
  uint64_t accepted = 0;
  ASSERT_EQ(batch->AbsorbBatchSerialized(messages.batch, &accepted),
            ParseError::kOk);

  EXPECT_EQ(accepted, messages.valid);
  EXPECT_EQ(single->accepted_reports(), messages.valid);
  EXPECT_EQ(single->rejected_reports(), items - messages.valid);
  EXPECT_EQ(batch->accepted_reports(), single->accepted_reports());
  EXPECT_EQ(batch->rejected_reports(), single->rejected_reports());
  EXPECT_EQ(batch->SerializeState(), single->SerializeState());
}

INSTANTIATE_TEST_SUITE_P(
    ReportFamilies, SingleAndBatchIngestTest,
    ::testing::Values(
        IngestCase{"Flat", {ServerKind::kFlat, kDomain, kEps}, FlatMessages},
        IngestCase{"Haar", {ServerKind::kHaar, kDomain, kEps}, HaarMessages},
        IngestCase{"Tree", {ServerKind::kTree, kDomain, kEps, 4}, TreeMessages},
        IngestCase{"Ahead", {ServerKind::kAhead, kDomain, kEps, 4},
                   AheadMessages},
        IngestCase{"Grid", {ServerKind::kGrid, 16, kEps, 2}, GridMessages}),
    [](const ::testing::TestParamInfo<IngestCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ldp
