// Deployable client/server split of the flat HRR point-query protocol —
// the frequency-oracle analogue of haar_protocol.h, useful when only
// point/short-range queries are needed (paper Section 4.2 shows flat wins
// there). Each report is one HRR coefficient sample, framed under the
// versioned v2 envelope (envelope.h); the seed's unframed 10-byte v1
// format stays decodable so old captures still parse. The server is a
// wire adapter over core/flat.h's FlatMechanism (hrr_server.h).

#ifndef LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "protocol/hrr_server.h"

namespace ldp::protocol {

/// Serializes an HRR report. v2 (default): 8-byte envelope + payload
/// [index u64][sign u8], 17 bytes. v1: legacy [tag 0x01][index u64]
/// [sign u8], 10 bytes.
std::vector<uint8_t> SerializeHrrReport(const HrrReport& report,
                                        uint8_t wire_version = kWireVersionV2);

/// Parses + validates either wire version, routed by the leading bytes.
/// Returns an explicit error code; total over arbitrary input.
ParseError ParseHrrReportDetailed(std::span<const uint8_t> bytes,
                                  HrrReport* report);

/// Convenience wrapper: true iff ParseHrrReportDetailed returns kOk.
bool ParseHrrReport(std::span<const uint8_t> bytes, HrrReport* report);

/// Serializes many reports as one v2 batch message (kFlatHrrBatch):
/// payload = [count varint][count x ([index u64][sign u8])].
std::vector<uint8_t> SerializeHrrReportBatch(std::span<const HrrReport> reports);

/// Parses a v2 batch message. Valid items land in `reports`; items whose
/// slot decodes but fails validation (bad sign byte) are skipped and
/// counted in `malformed` (may be null). Structural failures (bad
/// framing, count/size mismatch) reject the whole message.
ParseError ParseHrrReportBatch(std::span<const uint8_t> bytes,
                               std::vector<HrrReport>* reports,
                               uint64_t* malformed = nullptr);

/// Client-side flat HRR encoder. Wire-version selection and downgrade
/// negotiation come from DowngradableClient.
class FlatHrrClient : public DowngradableClient {
 public:
  FlatHrrClient(uint64_t domain, double eps);

  uint64_t domain() const { return domain_; }
  uint64_t padded_domain() const { return padded_; }

  HrrReport Encode(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<HrrReport> EncodeUsers(std::span<const uint64_t> values,
                                     Rng& rng) const;

  /// Batched encode + one framed v2 batch message (v2-only: the batch
  /// frame does not exist in v1).
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  uint64_t domain_;
  uint64_t padded_;
  double eps_;
};

/// Server-side flat HRR aggregator: a wire adapter over
/// FlatMechanism(kHrr), with O(1) post-Finalize range queries. Served
/// uncertainty is the mechanism's: r items of HRR's exact per-item
/// variance over the accepted reports.
class FlatHrrServer final : public HrrMechanismServer {
 public:
  FlatHrrServer(uint64_t domain, double eps);

  std::string Name() const override { return "FlatHrr"; }

  /// Ingests one report; false (counted) when out of range.
  bool Absorb(const HrrReport& report) { return AbsorbLevel(1, report); }
  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  /// Batched ingestion; returns the number of accepted reports (rejects
  /// are counted per report, exactly as the Absorb loop would).
  uint64_t AbsorbBatch(std::span<const HrrReport> reports);

 private:
  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                     uint64_t* accepted) override;
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
