#include "protocol/envelope.h"

#include <array>

#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

struct TagName {
  MechanismTag tag;
  const char* name;
};

constexpr TagName kTagNames[] = {
    {MechanismTag::kFlatHrr, "FlatHrr"},
    {MechanismTag::kHaarHrr, "HaarHrr"},
    {MechanismTag::kTreeHrr, "TreeHrr"},
    {MechanismTag::kGrr, "Grr"},
    {MechanismTag::kOue, "Oue"},
    {MechanismTag::kSue, "Sue"},
    {MechanismTag::kOlh, "Olh"},
    {MechanismTag::kAheadReport, "AheadReport"},
    {MechanismTag::kAheadTree, "AheadTree"},
    {MechanismTag::kMultiDimReport, "MultiDimReport"},
    {MechanismTag::kStreamBegin, "StreamBegin"},
    {MechanismTag::kStreamChunk, "StreamChunk"},
    {MechanismTag::kStreamEnd, "StreamEnd"},
    {MechanismTag::kRangeQueryRequest, "RangeQueryRequest"},
    {MechanismTag::kRangeQueryResponse, "RangeQueryResponse"},
    {MechanismTag::kMultiDimQuery, "MultiDimQuery"},
    {MechanismTag::kMultiDimQueryResponse, "MultiDimQueryResponse"},
    {MechanismTag::kStatsQuery, "StatsQuery"},
    {MechanismTag::kStatsResponse, "StatsResponse"},
    {MechanismTag::kStateSnapshot, "StateSnapshot"},
    {MechanismTag::kStateMerge, "StateMerge"},
    {MechanismTag::kStateMergeResponse, "StateMergeResponse"},
    {MechanismTag::kFlatHrrBatch, "FlatHrrBatch"},
    {MechanismTag::kHaarHrrBatch, "HaarHrrBatch"},
    {MechanismTag::kTreeHrrBatch, "TreeHrrBatch"},
    {MechanismTag::kAheadReportBatch, "AheadReportBatch"},
    {MechanismTag::kMultiDimReportBatch, "MultiDimReportBatch"},
};

// The table indexed by tag byte (null for unknown tags): DecodeEnvelope's
// known-tag check is one load.
constexpr std::array<const char*, 256> kNameByTag = [] {
  std::array<const char*, 256> names{};
  for (const TagName& entry : kTagNames) {
    names[static_cast<uint8_t>(entry.tag)] = entry.name;
  }
  return names;
}();

}  // namespace

bool IsKnownMechanismTag(uint8_t tag) { return kNameByTag[tag] != nullptr; }

std::string MechanismTagName(MechanismTag tag) {
  const char* name = kNameByTag[static_cast<uint8_t>(tag)];
  return name != nullptr ? name : "?";
}

std::string ParseErrorName(ParseError error) {
  switch (error) {
    case ParseError::kOk: return "ok";
    case ParseError::kTruncated: return "truncated";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kUnsupportedVersion: return "unsupported_version";
    case ParseError::kUnknownMechanism: return "unknown_mechanism";
    case ParseError::kLengthMismatch: return "length_mismatch";
    case ParseError::kTrailingJunk: return "trailing_junk";
    case ParseError::kBadPayload: return "bad_payload";
  }
  return "?";
}

std::vector<uint8_t> EncodeEnvelope(MechanismTag mechanism,
                                    std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + payload.size());
  AppendEnvelopeHeader(out, mechanism,
                       static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void AppendEnvelopeHeader(std::vector<uint8_t>& out, MechanismTag mechanism,
                          uint32_t payload_len) {
  AppendU8(out, kEnvelopeMagic0);
  AppendU8(out, kEnvelopeMagic1);
  AppendU8(out, kWireVersionV2);
  AppendU8(out, static_cast<uint8_t>(mechanism));
  AppendU32(out, payload_len);
}

ParseError DecodeEnvelope(std::span<const uint8_t> bytes, Envelope* out) {
  if (bytes.size() < kEnvelopeHeaderSize) return ParseError::kTruncated;
  if (bytes[0] != kEnvelopeMagic0 || bytes[1] != kEnvelopeMagic1) {
    return ParseError::kBadMagic;
  }
  uint8_t version = bytes[2];
  if (version != kWireVersionV2) return ParseError::kUnsupportedVersion;
  uint8_t tag = bytes[3];
  if (!IsKnownMechanismTag(tag)) return ParseError::kUnknownMechanism;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(bytes[4 + i]) << (8 * i);
  }
  // All arithmetic in size_t over validated sizes: a payload_len near
  // UINT32_MAX is compared, never allocated.
  size_t present = bytes.size() - kEnvelopeHeaderSize;
  if (present < payload_len) return ParseError::kLengthMismatch;
  if (present > payload_len) return ParseError::kTrailingJunk;
  out->version = version;
  out->mechanism = static_cast<MechanismTag>(tag);
  out->payload = bytes.subspan(kEnvelopeHeaderSize, payload_len);
  return ParseError::kOk;
}

bool LooksLikeEnvelope(std::span<const uint8_t> bytes) {
  return bytes.size() >= 2 && bytes[0] == kEnvelopeMagic0 &&
         bytes[1] == kEnvelopeMagic1;
}

}  // namespace ldp::protocol
