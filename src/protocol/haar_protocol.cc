#include "protocol/haar_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "core/haar.h"
#include "core/haar_hrr.h"

namespace ldp::protocol {

HaarHrrClient::HaarHrrClient(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)),
      eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

LevelHrrReport HaarHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, domain_);
  LevelHrrReport report;
  report.level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
  HaarUserCoefficient view = HaarUserView(value, report.level);
  report.inner = HrrEncode(padded_ >> report.level, eps_, view.block,
                           view.sign, rng);
  return report;
}

std::vector<uint8_t> HaarHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeReport(LevelHrrLayout{MechanismTag::kHaarHrr},
                         Encode(value, rng));
}

std::vector<LevelHrrReport> HaarHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<LevelHrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> HaarHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeReportBatch(LevelHrrLayout{MechanismTag::kHaarHrr},
                              EncodeUsers(values, rng));
}

HaarHrrServer::HaarHrrServer(uint64_t domain, double eps)
    : LevelHrrServer(MechanismTag::kHaarHrr,
                     std::make_unique<HaarHrrMechanism>(domain, eps)) {
  auto& haar = static_cast<HaarHrrMechanism&>(mutable_mechanism());
  for (uint32_t l = 1; l <= haar.height(); ++l) {
    AddLevel(haar.level_oracle(l));
  }
}

std::unique_ptr<service::AggregatorServer> HaarHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<HaarHrrServer>(domain(), mechanism().epsilon());
}

}  // namespace ldp::protocol
