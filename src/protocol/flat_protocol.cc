#include "protocol/flat_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "core/flat.h"

namespace ldp::protocol {

FlatHrrClient::FlatHrrClient(uint64_t domain, double eps)
    : domain_(domain), padded_(NextPowerOfTwo(domain)), eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

HrrReport FlatHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, domain_);
  return HrrEncode(padded_, eps_, value, +1, rng);
}

std::vector<uint8_t> FlatHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeReport(HrrLayout{}, Encode(value, rng));
}

std::vector<HrrReport> FlatHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<HrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> FlatHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeReportBatch(HrrLayout{}, EncodeUsers(values, rng));
}

FlatHrrServer::FlatHrrServer(uint64_t domain, double eps)
    : ReportServer(
          std::make_unique<FlatMechanism>(domain, eps, OracleKind::kHrr),
          /*level_count_in_state=*/false) {
  AddLevel(static_cast<FlatMechanism&>(mutable_mechanism()).oracle());
}

std::unique_ptr<service::AggregatorServer> FlatHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<FlatHrrServer>(domain(), mechanism().epsilon());
}

}  // namespace ldp::protocol
