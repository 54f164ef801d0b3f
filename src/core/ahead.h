// AHEAD-style adaptive hierarchical decomposition (Du et al., CCS 2021,
// adapted to this library's two-phase simulation harness).
//
// The paper's HH_B mechanisms fix the fanout B a priori, so every subtree
// is split all the way down — including subtrees whose counts are
// indistinguishable from noise, where the extra levels only add variance.
// AHEAD instead makes the tree shape *data-dependent*:
//
//   Phase 1: a configured fraction of users reports through a
//     level-sampled hierarchical histogram over the complete B-ary tree
//     (an embedded HH_B — each user reports the tree node containing
//     their value at one uniformly sampled level), so every candidate
//     node's mass is estimated *at its own granularity* with constant
//     variance — a flat phase-1 histogram would estimate a depth-1 node
//     as a sum of B^{h-1} noisy cells, pure noise. The aggregator then
//     decomposes the domain top-down: a node is split into its B children
//     only when its estimated mass clears a variance-derived threshold
//     theta = scale * 2 * sqrt(V_F(eps, n2/depth-cap)) — the noise floor
//     of the phase-2 estimates its children would receive; a node whose
//     mass the refinement could not resolve stays a leaf covering its
//     whole interval.
//   Phase 2: the remaining users report under the resulting irregular
//     tree with the usual level-sampling trick: each user samples one tree
//     level uniformly and reports the element of that level's *frontier*
//     (children of split nodes plus all shallower leaves, carried down so
//     every level partitions the domain) containing their value.
//
// A leaf that is carried through several frontiers receives an independent
// estimate at each level; Finalize combines them by inverse-variance
// weighting, then runs the irregular-tree generalization of Section 4.5's
// constrained inference (core/consistency.h) plus a non-negativity
// rebalance. Range queries walk the adaptive tree; ranges that end inside
// a leaf use the uniform-within-leaf assumption, trading a small bias on
// sub-leaf resolution for the (much larger, on skewed data) variance
// saved by not splitting noise-level subtrees.

#ifndef LDPRANGE_CORE_AHEAD_H_
#define LDPRANGE_CORE_AHEAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/badic.h"
#include "core/hierarchical.h"
#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// One node of an adaptive tree, addressed both by its position in the
/// underlying complete B-ary tree (`node`) and by the leaf interval
/// [block_start, block_end) it covers in the padded domain.
struct AdaptiveNode {
  TreeNode node;               // (depth, index) in complete-tree coordinates
  uint64_t block_start = 0;    // first padded leaf covered
  uint64_t block_end = 0;      // one past the last padded leaf covered
  int64_t parent = -1;         // index into AdaptiveTree::nodes(), -1 = root
  uint32_t first_child = 0;    // index of first child (children contiguous)
  uint32_t num_children = 0;   // 0 = leaf

  bool is_leaf() const { return num_children == 0; }
  uint64_t block_length() const { return block_end - block_start; }
};

/// An irregular (adaptively split) B-ary decomposition of a domain.
///
/// Nodes are stored in BFS order (node 0 is the root, parents precede
/// children). The tree defines `num_levels()` reporting frontiers: frontier
/// l >= 1 consists, left to right, of every depth-l child of a split node
/// plus every leaf at depth < l carried down — so each frontier partitions
/// the padded domain and every value maps to exactly one frontier element.
class AdaptiveTree {
 public:
  /// Grows a tree over `shape` by asking `should_split` for every node in
  /// BFS order. The root is always split; nodes at depth >= max_depth or
  /// with a single-leaf block never are. max_depth = 0 means the full
  /// tree height.
  static AdaptiveTree Grow(const TreeShape& shape, uint32_t max_depth,
                           const std::function<bool(const TreeNode&)>&
                               should_split);

  /// Reconstructs a tree from the exact set of split (internal) nodes, as
  /// shipped over the wire. `splits` must be in BFS order — sorted by
  /// (depth, index), starting with the root — every non-root split node's
  /// parent must itself be split, and all coordinates must be in range.
  /// Returns nullopt when any of that fails (total over adversarial
  /// input, never a crash).
  static std::optional<AdaptiveTree> TryFromSplits(
      const TreeShape& shape, std::span<const TreeNode> splits);

  const TreeShape& shape() const { return shape_; }
  const std::vector<AdaptiveNode>& nodes() const { return nodes_; }

  /// Number of reporting frontiers (= deepest split depth + 1, >= 1).
  uint32_t num_levels() const {
    return static_cast<uint32_t>(frontiers_.size());
  }

  /// The split (internal) nodes in BFS order — the wire representation.
  std::vector<TreeNode> SplitNodes() const;

  /// Number of elements of frontier `level` (1-based).
  uint64_t FrontierSize(uint32_t level) const;

  /// Node index (into nodes()) of element `j` of frontier `level`.
  uint32_t FrontierNode(uint32_t level, uint64_t j) const;

  /// Index within frontier `level` of the element containing leaf `z`
  /// (z < padded domain). Binary search, O(log |frontier|).
  uint64_t FrontierIndex(uint32_t level, uint64_t z) const;

  /// Frontier levels in which node `i` reports: an internal node appears
  /// only at its own depth, a leaf from its depth through num_levels().
  /// The root (depth 0, known exactly) appears nowhere.
  std::pair<uint32_t, uint32_t> NodeLevelRange(uint32_t i) const;

  /// Parent indices in consistency.h's layout: parents[i] < i, -1 for the
  /// root — the adaptive tree is BFS-ordered, so this is a direct copy.
  std::vector<int64_t> ParentIndices() const;

 private:
  explicit AdaptiveTree(const TreeShape& shape) : shape_(shape) {}

  void BuildFrontiers();

  TreeShape shape_;
  std::vector<AdaptiveNode> nodes_;
  // frontiers_[l-1] = node indices of frontier l; starts_[l-1][j] = block
  // start of element j (for the FrontierIndex binary search).
  std::vector<std::vector<uint32_t>> frontiers_;
  std::vector<std::vector<uint64_t>> starts_;
};

/// Configuration for the AHEAD mechanism.
struct AheadConfig {
  uint64_t fanout = 4;                            // B
  OracleKind oracle = OracleKind::kOueSimulated;  // phase-1 + per-level F
  /// Fraction of users routed (by private coin) to the phase-1 coarse
  /// histogram; the rest report under the adaptive tree. Must be in (0,1).
  double phase1_fraction = 0.15;
  /// Depth cap for the adaptive split; 0 = the full tree height.
  uint32_t max_depth = 0;
  /// Scales the split threshold theta = scale * 2 * sqrt(Var_phase1(node)).
  /// Larger = coarser trees; <= 0 forces a full split to max_depth (the
  /// degenerate case, equivalent in shape to fixed-fanout HH_B).
  double threshold_scale = 1.0;
  /// Apply the irregular-tree constrained inference after decode.
  bool consistency = true;
  /// Apply the non-negativity rebalance after constrained inference.
  /// (Clamping is the one post-processing step that trades a little bias
  /// for variance; the unbiasedness property tests switch it off.)
  bool nonnegativity = true;
};

/// Table label for an AHEAD configuration, e.g. "AHEAD4", "AHEAD2-GRR"
/// (the default oracle is elided, matching the HH naming convention).
std::string AheadMethodName(const AheadConfig& config);

/// Two-phase adaptive hierarchical mechanism ("AHEAD_B").
///
/// Simulation trust model: like OracleKind::kOueSimulated, the aggregate
/// keeps exact per-phase counts during ingestion and draws the oracle
/// noise at Finalize() time — statistically identical to the per-user
/// protocol at the aggregator, O(1) per user, and (because every
/// aggregate is an integer counter) bit-identical under EncodeUsersSharded
/// for any thread count.
///
/// Finalize runs three steps that the wire server
/// (protocol/ahead_protocol.h, one mechanism over GRR oracles) drives one
/// at a time: BuildTree, InstallTree, and the shared tail (frontier
/// estimates -> combine -> constrained inference -> non-negativity).
class AheadMechanism final : public RangeMechanism {
 public:
  AheadMechanism(uint64_t domain, double eps, const AheadConfig& config);

  const AheadConfig& config() const { return config_; }
  const TreeShape& shape() const { return shape_; }
  /// The depth cap with 0 resolved to the full tree height.
  uint32_t max_depth() const { return max_depth_; }
  uint64_t phase1_user_count() const { return phase1_tree_->user_count(); }
  uint64_t phase2_user_count() const;

  /// Grows the adaptive tree from the phase-1 estimates; the split
  /// threshold needs the phase-2 population, `expected_phase2_users`.
  /// Decodes a copy of phase 1, so its tallies stay raw (mergeable,
  /// serializable) after the tree exists.
  AdaptiveTree BuildTree(uint64_t expected_phase2_users, Rng& rng) const;

  /// Fixes the tree and creates one frontier oracle per level. Once,
  /// before Finalize.
  void InstallTree(AdaptiveTree tree);
  bool has_tree() const { return tree_.has_value(); }
  const AdaptiveTree& tree() const;

  /// The oracle behind complete-tree level l of phase 1, and behind
  /// frontier level l (needs the tree); 1-based. Mutable so a wire front
  /// end can absorb externally encoded reports and restore state.
  FrequencyOracle& phase1_oracle(uint32_t level);
  FrequencyOracle& frontier_oracle(uint32_t level);

  uint64_t user_count() const override {
    return phase1_user_count() + phase2_user_count();
  }
  std::string Name() const override;
  double ReportBits() const override;
  void EncodeUser(uint64_t value, Rng& rng) override;
  void EncodeUsers(std::span<const uint64_t> values, Rng& rng) override;
  std::unique_ptr<RangeMechanism> CloneEmpty() const override;
  /// Adopts `other`'s tree when this side has none; two different trees
  /// are fatal (their frontier counts cannot be summed).
  void MergeFrom(const RangeMechanism& other) override;
  /// Builds and installs the tree unless one is installed, draws the
  /// in-process phase-2 users through the frontiers, then the tail.
  void Finalize(Rng& rng) override;
  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// Sums per-node variances that were fixed before constrained
  /// inference, ignoring the covariances it creates and the
  /// non-negativity rescale — so not the exact variance: the reported
  /// stddev is about 1.6x the actual error (RMS error / stddev 0.63 at
  /// D = 2^10, e^eps = 3). See the ROADMAP item on reported uncertainty
  /// after constrained inference.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 private:
  AheadConfig config_;
  TreeShape shape_;
  uint32_t max_depth_;
  // Phase 1 is a full embedded HH_B (level sampling, constrained
  // inference) whose only job is to place the splits.
  std::unique_ptr<HierarchicalMechanism> phase1_tree_;
  // In-process phase-2 users not yet reported: an exact histogram
  // (allocated on the first), drawn through the frontiers at Finalize.
  std::vector<uint64_t> phase2_counts_;
  uint64_t phase2_users_ = 0;
  bool finalized_ = false;
  std::optional<AdaptiveTree> tree_;
  // frontier_oracles_[l-1] covers frontier level l (post-InstallTree).
  std::vector<std::unique_ptr<FrequencyOracle>> frontier_oracles_;
  std::vector<double> node_values_;     // post-Finalize, indexed like nodes()
  std::vector<double> node_variances_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_AHEAD_H_
