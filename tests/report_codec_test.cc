// The shared report codec (protocol/report_codec.h) from the server side:
// for every report family, one batch message and the same items sent as
// single-report messages must land identically — the same accepted and
// rejected counts and byte-identical state snapshots. Each batch mixes
// valid items, malformed slots (the layout's Decode refuses them; one at
// the first and one at the last position of the batch) and decodable but
// out-of-range items (the server's Accept refuses them), with the range
// boundaries hit exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
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

// Overwrites bytes of one item slot.
using Corrupt = std::function<void(std::span<uint8_t>)>;

// One malformed slot: the item at `slot` (one the server would accept)
// broken by `corrupt`.
struct Corruption {
  size_t slot;
  Corrupt corrupt;
};

// Serializes `items` both ways, then applies each corruption to the
// item's bytes in the batch and in its single message alike. `refused`
// items decode but must be refused by the server; every other intact
// item must be accepted.
template <typename Layout>
Messages Build(const Layout& layout,
               const std::vector<typename Layout::Item>& items,
               uint64_t refused, const std::vector<Corruption>& corruptions) {
  const size_t item_size = layout.item_size();
  Messages out;
  out.batch = protocol::SerializeReportBatch(layout, items);
  const size_t items_begin = out.batch.size() - items.size() * item_size;
  for (size_t i = 0; i < items.size(); ++i) {
    out.singles.push_back(protocol::SerializeReport(layout, items[i]));
  }
  for (const Corruption& c : corruptions) {
    c.corrupt(std::span<uint8_t>(out.batch).subspan(
        items_begin + c.slot * item_size, item_size));
    Bytes& single = out.singles[c.slot];
    c.corrupt(std::span<uint8_t>(single).subspan(single.size() - item_size));
  }
  out.valid = items.size() - refused - corruptions.size();
  return out;
}

// Appends `refused` to `items`, then moves the last valid item behind
// them, so a corruption of the batch's last slot hits an item the server
// would otherwise accept. Returns the number appended.
template <typename Item>
uint64_t AppendRefused(std::vector<Item>& items,
                       const std::vector<Item>& refused) {
  const Item last = items.back();
  items.pop_back();
  items.insert(items.end(), refused.begin(), refused.end());
  items.push_back(last);
  return refused.size();
}

Corrupt SetByte(size_t offset, uint8_t value) {
  return [offset, value](std::span<uint8_t> item) { item[offset] = value; };
}

std::vector<uint64_t> Values(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  Rng rng(0x5EED);
  for (uint64_t i = 0; i < n; ++i) values.push_back(rng.UniformInt(domain));
  return values;
}

constexpr uint64_t kDomain = 64;
constexpr double kEps = 1.0;

// Malformed slots: the first, two inside, and the last. The last slot
// is filled in by each family, after its refused items.
std::vector<Corruption> Corruptions(size_t items, Corrupt first,
                                    Corrupt second, Corrupt third,
                                    Corrupt last) {
  return {{0, std::move(first)},
          {1, std::move(second)},
          {5, std::move(third)},
          {items - 1, std::move(last)}};
}

Messages FlatMessages() {
  Rng rng(1);
  std::vector<HrrReport> items =
      protocol::FlatHrrClient(kDomain, kEps).EncodeUsers(Values(41, kDomain),
                                                         rng);
  const uint64_t refused = AppendRefused<HrrReport>(
      items, {
                 {uint64_t{1} << 20, +1},  // index past the domain
                 {kDomain, -1},            // index == padded domain
             });
  // The sign byte is the item's last.
  return Build(protocol::HrrLayout{}, items, refused,
               Corruptions(items.size(), SetByte(8, 0xFF), SetByte(8, 2),
                           SetByte(8, 2), SetByte(8, 0xFF)));
}

// `height` levels; level 1's padded HRR domain is `level1_padded`.
Messages LevelHrrMessages(MechanismTag tag,
                          std::vector<protocol::LevelHrrReport> items,
                          uint32_t height, uint64_t level1_padded) {
  const uint64_t refused = AppendRefused<protocol::LevelHrrReport>(
      items, {
                 {40, {0, +1}},                 // level past the height
                 {height + 1, {0, -1}},         // level == h + 1
                 {1, {uint64_t{1} << 20, -1}},  // index past the level
                 {1, {level1_padded, +1}},      // index == padded domain
             });
  // [level u8][index u64][sign u8]: level 0 and sign bytes above 1.
  return Build(protocol::LevelHrrLayout{tag}, items, refused,
               Corruptions(items.size(), SetByte(0, 0), SetByte(9, 2),
                           SetByte(9, 0xFF), SetByte(0, 0)));
}

Messages HaarMessages() {
  Rng rng(2);
  protocol::HaarHrrClient client(kDomain, kEps);
  // Haar level l holds D / 2^l coefficients.
  return LevelHrrMessages(MechanismTag::kHaarHrr,
                          client.EncodeUsers(Values(41, kDomain), rng),
                          client.height(), kDomain / 2);
}

Messages TreeMessages() {
  Rng rng(3);
  protocol::TreeHrrClient client(kDomain, 4, kEps);
  // Level 1 holds `fanout` nodes, a power of two here.
  return LevelHrrMessages(MechanismTag::kTreeHrr,
                          client.EncodeUsers(Values(41, kDomain), rng),
                          client.shape().height(),
                          client.shape().NodesAtLevel(1));
}

Messages AheadMessages() {
  Rng rng(4);
  protocol::AheadClient client(kDomain, 4, kEps);
  std::vector<protocol::AheadWireReport> items;
  for (uint64_t v : Values(41, kDomain)) {
    items.push_back(client.EncodePhase1(v, rng));
  }
  const uint32_t height = client.shape().height();
  const uint64_t refused = AppendRefused<protocol::AheadWireReport>(
      items, {
                 {1, 1, 1000},  // node past the level's node count
                 {1, 1, client.shape().NodesAtLevel(1)},  // node == count
                 {1, height + 1, 0},                      // level == h + 1
                 {2, 1, 0},  // phase 2 before the tree exists
             });
  // [phase u8][level u8][node u64]: phases other than 1 and 2.
  return Build(protocol::AheadLayout{}, items, refused,
               Corruptions(items.size(), SetByte(0, 0), SetByte(0, 3),
                           SetByte(0, 9), SetByte(0, 3)));
}

Messages GridMessages() {
  Rng rng(5);
  protocol::MultiDimClient client(16, 2, kEps, /*fanout=*/2);
  std::vector<uint64_t> coords = Values(82, 16);
  std::vector<protocol::MultiDimReport> items = client.EncodeUsers(coords, rng);
  protocol::MultiDimReport bad_cell = items[0];
  bad_cell.cell = 0xFFFFFFFFu;  // past the OLH hash range
  protocol::MultiDimReport cell_at_range = items[0];
  cell_at_range.cell = static_cast<uint32_t>(client.hash_range());
  protocol::MultiDimReport bad_level = items[0];
  bad_level.levels = {200, 1};  // past the tree height
  protocol::MultiDimReport level_past_height = items[0];
  level_past_height.levels = {
      1, static_cast<uint8_t>(client.shape().height() + 1)};
  const uint64_t refused = AppendRefused(
      items, {bad_cell, cell_at_range, bad_level, level_past_height});
  // The all-root level tuple.
  auto all_root = [](std::span<uint8_t> item) {
    item[0] = 0;
    item[1] = 0;
  };
  return Build(protocol::MultiDimLayout{2}, items, refused,
               Corruptions(items.size(), all_root, all_root, all_root,
                           all_root));
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
