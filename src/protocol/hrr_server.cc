#include "protocol/hrr_server.h"

#include "protocol/wire.h"

namespace ldp::protocol {

HrrMechanismServer::HrrMechanismServer(
    std::unique_ptr<RangeMechanism> mechanism, bool level_count_in_state)
    : MechanismServer(std::move(mechanism)),
      level_count_in_state_(level_count_in_state) {}

void HrrMechanismServer::AddLevel(FrequencyOracle& oracle) {
  auto* hrr = dynamic_cast<HrrOracle*>(&oracle);
  LDP_CHECK_MSG(hrr != nullptr, "HRR servers need HRR level oracles");
  levels_.push_back(hrr);
}

void HrrMechanismServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [levels varint][levels x HrrOracle record, level 1 first]; flat's
  // body is its one record alone.
  if (level_count_in_state_) AppendVarU64(out, levels_.size());
  for (const HrrOracle* oracle : levels_) {
    oracle->AppendState(out);
  }
}

bool HrrMechanismServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  if (level_count_in_state_) {
    uint64_t levels = 0;
    if (!reader.ReadVarU64(&levels)) return false;
    // The level count is a cross-check against this server's own shape,
    // never an allocation size.
    if (levels != levels_.size()) return false;
  }
  for (HrrOracle* oracle : levels_) {
    if (!oracle->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

}  // namespace ldp::protocol
