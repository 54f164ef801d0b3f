// The level-sampled HRR report shared by the paper's tree (TreeHRR,
// Section 4.3) and Haar (HaarHRR, Section 4.6) protocols. A user samples
// one level of the decomposition and sends one HRR coefficient sample for
// that level — [level u8][index u64][sign u8].
//
// The two protocols differ on the wire only in their tag bytes, so one
// layout serves both, keyed by the single-report tag:
//
//   protocol  single  batch
//   Haar      0x02    0x82
//   Tree      0x03    0x83
//
// The shared report codec (report_codec.h) frames the 10-byte item under
// the envelope: 18 bytes single. Range checks against a tree shape happen
// server side.

#ifndef LDPRANGE_PROTOCOL_LEVEL_HRR_H_
#define LDPRANGE_PROTOCOL_LEVEL_HRR_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "protocol/wire.h"

namespace ldp::protocol {

/// An unserialized level-sampled HRR report: which level the user
/// sampled (1-based) and their HRR report for that level's vector.
struct LevelHrrReport {
  uint32_t level = 1;
  HrrReport inner;
};

/// The level-HRR layout under `single` (kHaarHrr or kTreeHrr); its batch
/// tag sets the high bit. Level 0 and sign bytes above 1 are malformed;
/// the sign bit decodes arithmetically (2 * bit - 1), without a branch.
struct LevelHrrLayout {
  using Item = LevelHrrReport;
  MechanismTag single;

  MechanismTag tag() const {
    LDP_CHECK(single == MechanismTag::kHaarHrr ||
              single == MechanismTag::kTreeHrr);
    return single;
  }
  MechanismTag batch_tag() const {
    return static_cast<MechanismTag>(static_cast<uint8_t>(tag()) | 0x80);
  }
  static size_t item_size() { return 10; }
  static void Append(std::vector<uint8_t>& out, const LevelHrrReport& report) {
    AppendU8(out, static_cast<uint8_t>(report.level));
    AppendU64(out, report.inner.coefficient_index);
    AppendU8(out, report.inner.sign > 0 ? 1 : 0);  // 0 -> -1, 1 -> +1
  }
  static bool Decode(const uint8_t* slot, LevelHrrReport* report) {
    const uint8_t sign = slot[9];
    report->level = slot[0];
    report->inner.coefficient_index = LoadU64(slot + 1);
    report->inner.sign = static_cast<int8_t>(2 * sign - 1);
    return (sign <= 1) & (slot[0] != 0);
  }
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_LEVEL_HRR_H_
