#include "protocol/level_hrr.h"

#include "common/check.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemSize = 10;  // [level u8][index u64][sign u8]

// The codec speaks exactly the Haar and tree protocols.
void CheckTag(MechanismTag tag) {
  LDP_CHECK(tag == MechanismTag::kHaarHrr || tag == MechanismTag::kTreeHrr);
}

// Batch tags set the high bit of the single-report tag (envelope.h).
MechanismTag BatchTag(MechanismTag tag) {
  CheckTag(tag);
  return static_cast<MechanismTag>(static_cast<uint8_t>(tag) | 0x80);
}

void AppendItem(std::vector<uint8_t>& out, const LevelHrrReport& report) {
  AppendU8(out, static_cast<uint8_t>(report.level));
  AppendU64(out, report.inner.coefficient_index);
  AppendU8(out, report.inner.sign > 0 ? 1 : 0);  // 0 -> -1, 1 -> +1
}

// Decodes one fixed-size item, consuming the full slot before validating
// so batch readers stay aligned across a malformed item.
bool ReadItem(WireReader& reader, LevelHrrReport* report) {
  uint8_t level = 0;
  uint64_t index = 0;
  uint8_t sign = 0;
  if (!reader.ReadU8(&level) || !reader.ReadU64(&index) ||
      !reader.ReadU8(&sign)) {
    return false;
  }
  if (sign > 1 || level == 0) return false;
  report->level = level;
  report->inner.coefficient_index = index;
  report->inner.sign = sign == 1 ? +1 : -1;
  return true;
}

// The legacy v1 tag byte equals the single-report tag value.
ParseError ParseV1(MechanismTag tag, std::span<const uint8_t> bytes,
                   LevelHrrReport* report) {
  if (bytes.size() < 1 + kItemSize) return ParseError::kTruncated;
  if (bytes[0] != static_cast<uint8_t>(tag)) return ParseError::kBadMagic;
  if (bytes.size() > 1 + kItemSize) return ParseError::kTrailingJunk;
  WireReader reader(bytes.subspan(1));
  LevelHrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

}  // namespace

std::vector<uint8_t> SerializeLevelHrrReport(MechanismTag tag,
                                             const LevelHrrReport& report,
                                             uint8_t wire_version) {
  CheckTag(tag);
  std::vector<uint8_t> out;
  if (wire_version == kWireVersionV1) {
    out.reserve(1 + kItemSize);
    AppendU8(out, static_cast<uint8_t>(tag));
  } else {
    LDP_CHECK_EQ(wire_version, kWireVersionV2);
    out.reserve(kEnvelopeHeaderSize + kItemSize);
    AppendEnvelopeHeader(out, tag, kItemSize);
  }
  AppendItem(out, report);
  return out;
}

ParseError ParseLevelHrrReport(MechanismTag tag,
                               std::span<const uint8_t> bytes,
                               LevelHrrReport* report) {
  CheckTag(tag);
  if (!LooksLikeEnvelope(bytes)) return ParseV1(tag, bytes, report);
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != tag) return ParseError::kBadPayload;
  if (env.payload.size() != kItemSize) return ParseError::kBadPayload;
  WireReader reader(env.payload);
  LevelHrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

std::vector<uint8_t> SerializeLevelHrrReportBatch(
    MechanismTag tag, std::span<const LevelHrrReport> reports) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + reports.size() * kItemSize);
  AppendVarU64(payload, reports.size());
  for (const LevelHrrReport& report : reports) {
    AppendItem(payload, report);
  }
  return EncodeEnvelope(BatchTag(tag), payload);
}

ParseError ParseLevelHrrReportBatch(MechanismTag tag,
                                    std::span<const uint8_t> bytes,
                                    std::vector<LevelHrrReport>* reports,
                                    uint64_t* malformed) {
  const MechanismTag batch_tag = BatchTag(tag);
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != batch_tag) return ParseError::kBadPayload;
  WireReader reader(env.payload);
  uint64_t count = 0;
  if (!reader.ReadVarU64(&count)) return ParseError::kBadPayload;
  // Bound count before the exact-size check so count * kItemSize cannot
  // wrap; exact framing then bounds the reserve by bytes actually present.
  if (count > reader.Remaining() / kItemSize ||
      reader.Remaining() != count * kItemSize) {
    return ParseError::kBadPayload;
  }
  reports->clear();
  reports->reserve(count);
  uint64_t bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    LevelHrrReport report;
    if (ReadItem(reader, &report)) {
      reports->push_back(report);
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

}  // namespace ldp::protocol
