#include "protocol/tree_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"

namespace ldp::protocol {

namespace {

HierarchicalConfig HrrTreeConfig(uint64_t fanout, bool consistency) {
  HierarchicalConfig config;
  config.fanout = fanout;
  config.oracle = OracleKind::kHrr;
  config.consistency = consistency;
  return config;
}

}  // namespace

TreeHrrClient::TreeHrrClient(uint64_t domain, uint64_t fanout, double eps)
    : shape_(domain, fanout), eps_(eps) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

LevelHrrReport TreeHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  LevelHrrReport report;
  report.level = 1 + static_cast<uint32_t>(rng.UniformInt(shape_.height()));
  uint64_t node = shape_.NodeContaining(report.level, value);
  uint64_t padded = NextPowerOfTwo(shape_.NodesAtLevel(report.level));
  report.inner = HrrEncode(padded, eps_, node, +1, rng);
  return report;
}

std::vector<uint8_t> TreeHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeReport(LevelHrrLayout{MechanismTag::kTreeHrr},
                         Encode(value, rng));
}

std::vector<LevelHrrReport> TreeHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<LevelHrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> TreeHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeReportBatch(LevelHrrLayout{MechanismTag::kTreeHrr},
                              EncodeUsers(values, rng));
}

TreeHrrServer::TreeHrrServer(uint64_t domain, uint64_t fanout, double eps,
                             bool consistency)
    : LevelHrrServer(MechanismTag::kTreeHrr,
                     std::make_unique<HierarchicalMechanism>(
                         domain, eps, HrrTreeConfig(fanout, consistency))) {
  auto& tree = static_cast<HierarchicalMechanism&>(mutable_mechanism());
  for (uint32_t l = 1; l <= tree.shape().height(); ++l) {
    AddLevel(tree.level_oracle(l));
  }
}

const HierarchicalMechanism& TreeHrrServer::tree() const {
  return static_cast<const HierarchicalMechanism&>(mechanism());
}

std::unique_ptr<service::AggregatorServer> TreeHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<TreeHrrServer>(domain(), shape().fanout(),
                                         mechanism().epsilon(),
                                         tree().consistency_enabled());
}

service::MergeStatus TreeHrrServer::DoMergeFrom(
    service::AggregatorServer& other) {
  // Consistency is a finalize-time post-processing switch, not aggregate
  // state, but merged shards must agree on how they will be finalized.
  if (static_cast<TreeHrrServer&>(other).tree().consistency_enabled() !=
      tree().consistency_enabled()) {
    return service::MergeStatus::kConfigMismatch;
  }
  return LevelHrrServer::DoMergeFrom(other);
}

}  // namespace ldp::protocol
