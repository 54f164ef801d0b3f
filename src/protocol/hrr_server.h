// The server side shared by the three HRR wire protocols (flat, tree,
// Haar): a wire adapter over the core mechanism of each paper
// decomposition.
//
// A server owns the in-process mechanism (FlatMechanism,
// HierarchicalMechanism or HaarHrrMechanism, all over HRR) and adds only
// what the wire needs: checking decoded reports before they reach the
// mechanism's level oracles, and the state-snapshot body codec. Finalize,
// queries, uncertainty, clone and merge are the mechanism's own — so a
// served answer, stddev included, is bit-identical to the in-process
// mechanism fed the same reports.
//
// The report check (AcceptLevel) is the per-report body of the batch
// absorb kernel in report_codec.h. It has no branch on the report's
// random sign, and it does no accounting: ReportServer counts accepted
// and rejected reports once per message.

#ifndef LDPRANGE_PROTOCOL_HRR_SERVER_H_
#define LDPRANGE_PROTOCOL_HRR_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/range_mechanism.h"
#include "frequency/hrr.h"
#include "protocol/level_hrr.h"
#include "protocol/report_codec.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// An AggregatorServer whose aggregate is one core RangeMechanism with
/// HRR level oracles.
class HrrMechanismServer : public service::AggregatorServer {
 public:
  uint64_t domain() const override { return mechanism_->domain_size(); }

  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// The mechanism's per-node variance accounting: HRR's exact per-item
  /// variance summed over the nodes (tree), coefficients (Haar) or items
  /// (flat) the range uses — +inf when a level it uses has no reports.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 protected:
  /// Takes `mechanism`; the subclass constructor then registers its HRR
  /// oracles with AddLevel, level 1 first. `level_count_in_state`
  /// prefixes the state body with the level count (the tree and Haar
  /// layout; flat's body is the bare oracle record).
  HrrMechanismServer(std::unique_ptr<RangeMechanism> mechanism,
                     bool level_count_in_state);

  /// Registers the mechanism oracle behind the next level; it must be an
  /// HrrOracle.
  void AddLevel(FrequencyOracle& oracle);

  /// The absorb hot path: checks level in [1, h], index below that
  /// level's padded domain and sign in {-1, +1}, then folds the report
  /// into the level oracle. False otherwise. No accounting — the
  /// server's ReportServer counts.
  bool AcceptLevel(uint32_t level, const HrrReport& report) {
    LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
    // level - 1 wraps for level 0, so one compare covers [1, h].
    const uint32_t slot = level - 1;
    if (slot >= levels_.size() ||
        report.coefficient_index >= levels_[slot]->padded_domain() ||
        !IsUnitSign(report.sign)) {
      return false;
    }
    levels_[slot]->AbsorbReport(report);
    return true;
  }

  /// The core mechanism this server aggregates into.
  const RangeMechanism& mechanism() const { return *mechanism_; }
  RangeMechanism& mutable_mechanism() { return *mechanism_; }

  void DoFinalize() override;
  double state_epsilon() const override { return mechanism_->epsilon(); }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

 private:
  std::unique_ptr<RangeMechanism> mechanism_;
  // levels_[l-1] views the mechanism's level-l oracle.
  std::vector<HrrOracle*> levels_;
  bool level_count_in_state_;
};

/// An HrrMechanismServer fed level-sampled reports (level_hrr.h) under
/// one protocol tag: the shared body of TreeHrrServer and HaarHrrServer.
class LevelHrrServer
    : public ReportServer<LevelHrrServer, LevelHrrLayout, HrrMechanismServer> {
 public:
  LevelHrrLayout report_layout() const { return LevelHrrLayout{tag_}; }

 protected:
  LevelHrrServer(MechanismTag tag, std::unique_ptr<RangeMechanism> mechanism)
      : ReportServer(std::move(mechanism), /*level_count_in_state=*/true),
        tag_(tag) {}

 private:
  friend ReportServer;

  /// False on an out-of-range level or index.
  bool Accept(const LevelHrrReport& report) {
    return AcceptLevel(report.level, report.inner);
  }

  MechanismTag tag_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_HRR_SERVER_H_
