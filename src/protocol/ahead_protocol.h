// Deployable client/server split of the AHEAD adaptive mechanism
// (core/ahead.h) — the first protocol here whose *message domain changes
// mid-collection*: the tree the phase-2 reports are encoded against does
// not exist until the server has seen phase 1.
//
// Exchange:
//   1. Phase-1 clients sample a level of the *complete* B-ary tree
//      uniformly and ship a GRR report over that level's nodes
//      ([phase=1][level][perturbed node index]) — an HH_B-style
//      hierarchical histogram, so every candidate node's mass is
//      estimated at its own granularity with constant variance (a flat
//      phase-1 histogram would drown shallow nodes in summed cell
//      noise).
//   2. The server ends phase 1 with BuildTree(), deriving the adaptive
//      decomposition from the debiased, consistency-smoothed phase-1
//      estimates, and broadcasts it as a kAheadTree message (the
//      canonical split-node set).
//   3. Phase-2 clients absorb the tree, sample a frontier level uniformly
//      and ship a GRR report over that frontier
//      ([phase=2][level][perturbed frontier index]).
//   4. The server debiases per level, combines carried-leaf estimates by
//      inverse variance, runs the irregular-tree constrained inference,
//      and serves range / frequency / quantile queries.
//
// The server is a wire adapter (mechanism_server.h) over one
// AheadMechanism (core/ahead.h) configured with GRR oracles: every
// tally, estimate and step of 2 and 4 is the mechanism's, so a served
// answer is bit-identical to that mechanism fed the same reports. The
// server adds the report check, the kAheadTree codec and the state body.
//
// GRR is the inner oracle on the wire: its report *is* a single node id,
// which keeps every AHEAD report a fixed 10-byte item (AheadLayout, framed
// by the shared report codec, report_codec.h); the in-process simulation
// (core/ahead.h) runs better oracles for large domains.
//
// Every parser is total over adversarial bytes: forged phases, forged
// node ids (out of the coarse domain or a frontier), reports for the
// wrong phase era, and malformed tree descriptions (orphan or duplicate
// splits, out-of-range coordinates) are rejected with explicit errors and
// counted, never crashed on.

#ifndef LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/ahead.h"
#include "core/badic.h"
#include "frequency/grr.h"
#include "protocol/envelope.h"
#include "protocol/mechanism_server.h"
#include "protocol/report_codec.h"
#include "protocol/wire.h"

namespace ldp::protocol {

/// One unserialized AHEAD report. `level` is 1-based in both phases: for
/// phase 1 it indexes a complete-tree level and `node` is a GRR-perturbed
/// node index at that level; for phase 2 it indexes an adaptive-tree
/// frontier and `node` a GRR-perturbed index into it.
struct AheadWireReport {
  uint8_t phase = 1;
  uint32_t level = 1;
  uint64_t node = 0;

  bool operator==(const AheadWireReport&) const = default;
};

/// The AHEAD report layout (report_codec.h): [phase u8][level u8]
/// [node u64] under kAheadReport / kAheadReportBatch. A phase other than
/// 1 or 2 and level 0 are malformed; level/node range checks happen
/// server side, where the domains are known.
struct AheadLayout {
  using Item = AheadWireReport;
  static MechanismTag tag() { return MechanismTag::kAheadReport; }
  static MechanismTag batch_tag() { return MechanismTag::kAheadReportBatch; }
  static size_t item_size() { return 10; }
  static void Append(std::vector<uint8_t>& out, const AheadWireReport& report) {
    AppendU8(out, report.phase);
    AppendU8(out, static_cast<uint8_t>(report.level));
    AppendU64(out, report.node);
  }
  static bool Decode(const uint8_t* slot, AheadWireReport* report) {
    report->phase = slot[0];
    report->level = slot[1];
    report->node = LoadU64(slot + 2);
    // Phase 1 or 2: phase - 1 is 0 or 1 as an unsigned byte.
    return (static_cast<uint8_t>(slot[0] - 1) <= 1) & (slot[1] != 0);
  }
};

/// Hard caps ParseAheadTree enforces before reconstructing anything, so a
/// forged kAheadTree message cannot drive the shape math into overflow or
/// the node allocation into attacker-chosen sizes. Generous for every
/// real deployment (the paper's largest domain is 2^22).
inline constexpr uint64_t kMaxAheadTreeDomain = uint64_t{1} << 32;
inline constexpr uint64_t kMaxAheadTreeFanout = 1024;
inline constexpr uint64_t kMaxAheadTreeNodes = uint64_t{1} << 22;

/// Serializes an adaptive tree as its canonical BFS split-node set under
/// a kAheadTree envelope (the server -> client phase transition message).
std::vector<uint8_t> SerializeAheadTree(uint64_t domain, uint64_t fanout,
                                        const AdaptiveTree& tree);

/// Parses + validates a kAheadTree message. On success `*domain` /
/// `*fanout` carry the advertised shape and `*tree` the reconstructed
/// decomposition; any structural violation (see AdaptiveTree::
/// TryFromSplits) is kBadPayload.
ParseError ParseAheadTree(std::span<const uint8_t> bytes, uint64_t* domain,
                          uint64_t* fanout,
                          std::optional<AdaptiveTree>* tree);

/// Client-side encoder for both phases.
class AheadClient {
 public:
  AheadClient(uint64_t domain, uint64_t fanout, double eps);

  const TreeShape& shape() const { return shape_; }
  bool has_tree() const { return tree_.has_value(); }
  const AdaptiveTree& tree() const;

  /// Phase 1: sample a complete-tree level uniformly, GRR over its nodes.
  AheadWireReport EncodePhase1(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodePhase1Serialized(uint64_t value, Rng& rng) const;

  /// Installs the server's tree broadcast; false (tree unchanged) when
  /// the message is malformed or disagrees with this client's
  /// domain/fanout.
  bool AbsorbTreeDescription(std::span<const uint8_t> bytes);

  /// In-process handoff for tests and simulations.
  void SetTree(AdaptiveTree tree);

  /// Phase 2 (requires the tree): sample a level, GRR over its frontier.
  AheadWireReport EncodePhase2(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodePhase2Serialized(uint64_t value, Rng& rng) const;

  /// Batched phase-2 encode: one report per value, drawn exactly as the
  /// EncodePhase2 loop would, framed as one kAheadReportBatch message.
  std::vector<AheadWireReport> EncodePhase2Users(
      std::span<const uint64_t> values, Rng& rng) const;
  std::vector<uint8_t> EncodePhase2UsersSerialized(
      std::span<const uint64_t> values, Rng& rng) const;

 private:
  TreeShape shape_;
  double eps_;
  std::optional<AdaptiveTree> tree_;
};

/// Post-processing knobs of the server pipeline (the wire analogue of the
/// corresponding AheadConfig fields).
struct AheadServerConfig {
  double threshold_scale = 1.0;  // <= 0 forces a full split to max_depth
  uint32_t max_depth = 0;        // 0 = the full tree height
  bool consistency = true;
  bool nonnegativity = true;
};

/// Server-side aggregator: phase-1 reports into the mechanism's
/// complete-tree GRR oracles -> BuildTree() -> phase-2 reports into its
/// frontier GRR oracles -> Finalize() -> queries. Serialized ingestion
/// and its accounting come from ReportServer (Absorb counts one report, a
/// batch adds its totals once per message); finalize discipline and
/// quantile search from service::AggregatorServer.
class AheadServer final
    : public ReportServer<AheadServer, AheadLayout, MechanismServer> {
 public:
  AheadServer(uint64_t domain, uint64_t fanout, double eps,
              const AheadServerConfig& config = {});

  std::string Name() const override { return "Ahead"; }
  const TreeShape& shape() const { return ahead().shape(); }
  bool tree_built() const { return ahead().has_tree(); }
  const AdaptiveTree& tree() const { return ahead().tree(); }

  /// Ends phase 1: derives the adaptive tree from the debiased coarse
  /// histogram and returns the serialized kAheadTree broadcast. Idempotent
  /// after the first call (returns the same message).
  std::vector<uint8_t> BuildTree();

  /// Installs a kAheadTree broadcast produced by *another* server's
  /// BuildTree() — the distributed two-phase handoff: the query node
  /// builds the tree once, and each shard's fresh phase-2 server adopts
  /// it instead of deriving its own from phase-1 reports it never saw.
  /// Returns false (state unchanged) on malformed bytes, a domain/fanout
  /// mismatch, or a *different* tree already in place; idempotent when
  /// the identical tree is already installed. Must precede Finalize.
  bool InstallTree(std::span<const uint8_t> bytes);

  uint64_t phase1_reports() const { return ahead().phase1_user_count(); }
  uint64_t phase2_reports() const { return ahead().phase2_user_count(); }

 private:
  friend ReportServer;

  explicit AheadServer(std::unique_ptr<RangeMechanism> mechanism);

  const AheadMechanism& ahead() const {
    return static_cast<const AheadMechanism&>(mechanism());
  }
  AheadMechanism& mutable_ahead() {
    return static_cast<AheadMechanism&>(mutable_mechanism());
  }

  /// Checks and folds one report (ReportServer counts it): false on a
  /// phase that does not match the current era — phase 2 before the
  /// tree, phase 1 after — or an out-of-range level or node id.
  bool Accept(const AheadWireReport& report) {
    LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
    // Phase-1 reports after the tree broadcast are stale: accepting them
    // would let a client influence a decomposition other clients already
    // encode against. Phase-2 reports before it have no frontier yet.
    const bool phase2 = !frontier_.empty();
    if (report.phase != (phase2 ? 2 : 1)) return false;
    // The oracle domains are the range checks: one oracle per
    // complete-tree level (phase 1) or frontier (phase 2), one tally per
    // node. level - 1 wraps for level 0.
    const std::vector<GrrOracle*>& levels = phase2 ? frontier_ : phase1_;
    const uint32_t slot = report.level - 1;
    if (slot >= levels.size() ||
        report.node >= levels[slot]->domain_size()) {
      return false;
    }
    levels[slot]->AbsorbReport(report.node);
    return true;
  }

  /// The installed tree's canonical kAheadTree broadcast.
  std::vector<uint8_t> TreeMessage() const;
  /// Parses a kAheadTree message for this server's domain and fanout.
  std::optional<AdaptiveTree> ParseOwnTree(
      std::span<const uint8_t> bytes) const;
  /// Installs `tree` into the mechanism and views its frontier oracles.
  void AdoptTree(AdaptiveTree tree);

  /// Builds the tree if phase 1 was never closed, then finalizes the
  /// mechanism.
  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kAhead;
  }
  uint64_t state_fanout() const override { return shape().fanout(); }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  // Views of the mechanism's GRR oracles: phase1_[l-1] behind
  // complete-tree level l, frontier_[l-1] behind frontier level l (empty
  // until the tree exists).
  std::vector<GrrOracle*> phase1_;
  std::vector<GrrOracle*> frontier_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_
