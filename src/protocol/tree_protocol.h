// Deployable client/server split of the hierarchical-histogram mechanism
// with the HRR primitive ("TreeHRR" in the paper's Figure 4) — the
// low-communication HH variant a deployment would actually ship: the paper
// notes TreeHRRCI "requires vastly reduced communication for each user at
// the cost of only a slight increase in error" versus TreeOUECI.
//
// Each report: sampled tree level + one HRR coefficient sample for that
// level's one-hot node indicator, in the level-HRR layout under the tree
// tags (level_hrr.h: 18 bytes framed by the shared report codec,
// report_codec.h). The server validates reports into a core
// HierarchicalMechanism, which debiases, applies Section 4.5
// consistency, and serves range / prefix / quantile queries.

#ifndef LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/badic.h"
#include "core/hierarchical.h"
#include "protocol/envelope.h"
#include "protocol/hrr_server.h"
#include "protocol/level_hrr.h"

namespace ldp::protocol {

/// Client-side encoder.
class TreeHrrClient {
 public:
  TreeHrrClient(uint64_t domain, uint64_t fanout, double eps);

  const TreeShape& shape() const { return shape_; }

  LevelHrrReport Encode(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<LevelHrrReport> EncodeUsers(std::span<const uint64_t> values,
                                          Rng& rng) const;

  /// Batched encode + one framed batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  TreeShape shape_;
  double eps_;
};

/// Server-side aggregator: a wire adapter over
/// HierarchicalMechanism({fanout, kHrr, consistency}). Served uncertainty
/// is the mechanism's per-node accounting over the range's B-adic nodes
/// (with the Lemma 4.6 factor under consistency), not the Theorem 4.3
/// worst-case envelope.
class TreeHrrServer final : public LevelHrrServer {
 public:
  TreeHrrServer(uint64_t domain, uint64_t fanout, double eps,
                bool consistency = true);

  std::string Name() const override { return "TreeHrr"; }
  const TreeShape& shape() const { return tree().shape(); }

 private:
  const HierarchicalMechanism& tree() const;
  service::StateKind state_kind() const override {
    return service::StateKind::kTree;
  }
  uint64_t state_fanout() const override { return shape().fanout(); }
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_
