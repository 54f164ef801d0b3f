// Wire codec for level-sampled HRR reports: the report shape shared by
// the paper's tree (TreeHRR, Section 4.3) and Haar (HaarHRR, Section 4.6)
// protocols. A user samples one level of the decomposition and sends one
// HRR coefficient sample for that level — [level u8][index u64][sign u8].
//
// The two protocols differ on the wire only in their tag bytes, so one
// codec serves both, keyed by the single-report MechanismTag:
//
//   protocol  single (v2)  batch (v2)  legacy v1 tag byte
//   Haar      0x02         0x82        0x02
//   Tree      0x03         0x83        0x03
//
// v2 frames the 10-byte item under the 8-byte envelope (18 bytes); v1 is
// the seed's unframed [tag][item] (11 bytes), still decodable so old
// captures parse. Range checks against a tree shape happen server side.

#ifndef LDPRANGE_PROTOCOL_LEVEL_HRR_H_
#define LDPRANGE_PROTOCOL_LEVEL_HRR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "frequency/hrr.h"
#include "protocol/envelope.h"

namespace ldp::protocol {

/// An unserialized level-sampled HRR report: which level the user
/// sampled (1-based) and their HRR report for that level's vector.
struct LevelHrrReport {
  uint32_t level = 1;
  HrrReport inner;
};

/// Serializes one report under `tag` (kHaarHrr or kTreeHrr). v2
/// (default): envelope + 10-byte item. v1: [tag byte][item].
std::vector<uint8_t> SerializeLevelHrrReport(
    MechanismTag tag, const LevelHrrReport& report,
    uint8_t wire_version = kWireVersionV2);

/// Parses and validates either wire version of a `tag` report, routed by
/// the leading bytes. Total over arbitrary input; a message carrying the
/// other protocol's tag is rejected.
ParseError ParseLevelHrrReport(MechanismTag tag,
                               std::span<const uint8_t> bytes,
                               LevelHrrReport* report);

/// One framed v2 batch message under `tag`'s batch tag:
/// payload = [count varint][count x item].
std::vector<uint8_t> SerializeLevelHrrReportBatch(
    MechanismTag tag, std::span<const LevelHrrReport> reports);

/// Parses a v2 batch message under `tag`'s batch tag. Items whose slot
/// decodes but fails validation (level 0, bad sign byte) are skipped and
/// counted in `malformed` (may be null); structural failures (framing,
/// count/size mismatch) reject the whole message.
ParseError ParseLevelHrrReportBatch(MechanismTag tag,
                                    std::span<const uint8_t> bytes,
                                    std::vector<LevelHrrReport>* reports,
                                    uint64_t* malformed = nullptr);

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_LEVEL_HRR_H_
