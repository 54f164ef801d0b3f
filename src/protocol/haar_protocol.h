// Deployable client/server split of the paper's HaarHRR mechanism.
//
// HaarHrrMechanism simulates both protocol sides in one object — ideal for
// experiments. This module is the shape a production rollout needs:
//
//   * HaarHrrClient lives on the user's device, holds only public
//     parameters, and turns the private value into one serialized report
//     (level id + Hadamard coefficient index + 1 randomized sign bit, in
//     the level-HRR layout under the Haar tags — level_hrr.h: 18 bytes
//     framed by the shared report codec, report_codec.h). The report is
//     eps-LDP before it leaves the device.
//   * HaarHrrServer ingests serialized reports — rejecting malformed or
//     out-of-range ones instead of crashing — into a HaarHrrMechanism,
//     which answers range / prefix / quantile queries after Finalize().
//
// Under a shared RNG stream the wire path and the in-process mechanism
// produce bit-identical estimates and stddevs (tests/protocol_test.cc).

#ifndef LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "protocol/envelope.h"
#include "protocol/hrr_server.h"
#include "protocol/level_hrr.h"

namespace ldp::protocol {

/// Client-side encoder (stateless between users).
class HaarHrrClient {
 public:
  HaarHrrClient(uint64_t domain, double eps);

  uint64_t domain() const { return domain_; }
  uint64_t padded_domain() const { return padded_; }
  uint32_t height() const { return height_; }

  /// Randomizes `value` in [0, domain) into a report. eps-LDP.
  LevelHrrReport Encode(uint64_t value, Rng& rng) const;

  /// Encode + serialize in one step.
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<LevelHrrReport> EncodeUsers(std::span<const uint64_t> values,
                                          Rng& rng) const;

  /// Batched encode + one framed batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  uint64_t domain_;
  uint64_t padded_;
  uint32_t height_;
  double eps_;
};

/// Server-side aggregator: a wire adapter over HaarHrrMechanism. Served
/// uncertainty is the mechanism's per-coefficient accounting over the
/// coefficients the range cuts (0 for the full domain), not the Eq. 3
/// worst-case envelope.
class HaarHrrServer final : public LevelHrrServer {
 public:
  HaarHrrServer(uint64_t domain, double eps);

  std::string Name() const override { return "HaarHrr"; }

 private:
  service::StateKind state_kind() const override {
    return service::StateKind::kHaar;
  }
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_
