// Deployable client/server split of the flat HRR point-query protocol —
// the frequency-oracle analogue of haar_protocol.h, useful when only
// point/short-range queries are needed (paper Section 4.2 shows flat wins
// there). Each report is one HRR coefficient sample (HrrLayout), framed
// under the v2 envelope by the shared report codec (report_codec.h): 17
// bytes single, 9 bytes per item in a batch. The server is a wire adapter
// over core/flat.h's FlatMechanism (hrr_server.h).

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
#include "protocol/report_codec.h"
#include "protocol/wire.h"

namespace ldp::protocol {

/// The flat HRR report: one HRR coefficient sample,
/// [index u64][sign u8] under kFlatHrr / kFlatHrrBatch (report_codec.h).
/// Sign bytes above 1 are malformed; the bit decodes as 2 * bit - 1.
struct HrrLayout {
  using Item = HrrReport;
  static MechanismTag tag() { return MechanismTag::kFlatHrr; }
  static MechanismTag batch_tag() { return MechanismTag::kFlatHrrBatch; }
  static size_t item_size() { return 9; }
  static void Append(std::vector<uint8_t>& out, const HrrReport& report) {
    AppendU64(out, report.coefficient_index);
    AppendU8(out, report.sign > 0 ? 1 : 0);  // 0 -> -1, 1 -> +1
  }
  static bool Decode(const uint8_t* slot, HrrReport* report) {
    const uint8_t sign = slot[8];
    report->coefficient_index = LoadU64(slot);
    report->sign = static_cast<int8_t>(2 * sign - 1);
    return sign <= 1;
  }
};

/// Client-side flat HRR encoder.
class FlatHrrClient {
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

  /// Batched encode + one framed batch message.
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
class FlatHrrServer final
    : public ReportServer<FlatHrrServer, HrrLayout, HrrMechanismServer> {
 public:
  FlatHrrServer(uint64_t domain, double eps);

  std::string Name() const override { return "FlatHrr"; }

 private:
  friend ReportServer;

  /// False when the index is out of range.
  bool Accept(const HrrReport& report) { return AcceptLevel(1, report); }

  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
