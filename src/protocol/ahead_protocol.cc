#include "protocol/ahead_protocol.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "frequency/grr.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

GrrOracle* AsGrr(FrequencyOracle& oracle) {
  auto* grr = dynamic_cast<GrrOracle*>(&oracle);
  LDP_CHECK_MSG(grr != nullptr, "AHEAD servers need GRR oracles");
  return grr;
}

// The total report count of `levels`; nullopt when it overflows uint64.
std::optional<uint64_t> TotalReports(std::span<GrrOracle* const> levels) {
  uint64_t total = 0;
  for (const GrrOracle* level : levels) {
    if (__builtin_add_overflow(total, level->report_count(), &total)) {
      return std::nullopt;
    }
  }
  return total;
}

}  // namespace

std::vector<uint8_t> SerializeAheadTree(uint64_t domain, uint64_t fanout,
                                        const AdaptiveTree& tree) {
  std::vector<TreeNode> splits = tree.SplitNodes();
  std::vector<uint8_t> payload;
  AppendVarU64(payload, domain);
  AppendVarU64(payload, fanout);
  AppendVarU64(payload, splits.size());
  for (const TreeNode& s : splits) {
    AppendU8(payload, static_cast<uint8_t>(s.level));
    AppendVarU64(payload, s.index);
  }
  return EncodeEnvelope(MechanismTag::kAheadTree, payload);
}

ParseError ParseAheadTree(std::span<const uint8_t> bytes, uint64_t* domain,
                          uint64_t* fanout,
                          std::optional<AdaptiveTree>* tree) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kAheadTree) {
    return ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint64_t d = 0;
  uint64_t b = 0;
  uint64_t count = 0;
  if (!reader.ReadVarU64(&d) || !reader.ReadVarU64(&b) ||
      !reader.ReadVarU64(&count)) {
    return ParseError::kBadPayload;
  }
  if (d < 2 || b < 2 || d > kMaxAheadTreeDomain ||
      b > kMaxAheadTreeFanout) {
    return ParseError::kBadPayload;
  }
  // Two bytes minimum per split entry; rejects forged counts before any
  // allocation sized by them. The node cap bounds what reconstruction may
  // allocate (every split contributes `fanout` children).
  if (count > reader.Remaining() / 2) return ParseError::kBadPayload;
  if (count > (kMaxAheadTreeNodes - 1) / b) return ParseError::kBadPayload;
  std::vector<TreeNode> splits;
  splits.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t level = 0;
    uint64_t index = 0;
    if (!reader.ReadU8(&level) || !reader.ReadVarU64(&index)) {
      return ParseError::kBadPayload;
    }
    splits.push_back(TreeNode{level, index});
  }
  if (!reader.AtEnd()) return ParseError::kBadPayload;
  TreeShape shape(d, b);
  std::optional<AdaptiveTree> parsed =
      AdaptiveTree::TryFromSplits(shape, splits);
  if (!parsed.has_value()) return ParseError::kBadPayload;
  *domain = d;
  *fanout = b;
  *tree = std::move(parsed);
  return ParseError::kOk;
}

// --- AheadClient ----------------------------------------------------------

AheadClient::AheadClient(uint64_t domain, uint64_t fanout, double eps)
    : shape_(domain, fanout), eps_(eps) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

const AdaptiveTree& AheadClient::tree() const {
  LDP_CHECK_MSG(tree_.has_value(), "no tree installed");
  return *tree_;
}

AheadWireReport AheadClient::EncodePhase1(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  AheadWireReport report;
  report.phase = 1;
  report.level =
      1 + static_cast<uint32_t>(rng.UniformInt(shape_.height()));
  uint64_t node = shape_.NodeContaining(report.level, value);
  report.node =
      GrrPerturb(node, shape_.NodesAtLevel(report.level), eps_, rng);
  return report;
}

std::vector<uint8_t> AheadClient::EncodePhase1Serialized(uint64_t value,
                                                         Rng& rng) const {
  return SerializeReport(AheadLayout{}, EncodePhase1(value, rng));
}

bool AheadClient::AbsorbTreeDescription(std::span<const uint8_t> bytes) {
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> tree;
  if (ParseAheadTree(bytes, &domain, &fanout, &tree) != ParseError::kOk) {
    return false;
  }
  if (domain != shape_.domain() || fanout != shape_.fanout()) return false;
  tree_ = std::move(tree);
  return true;
}

void AheadClient::SetTree(AdaptiveTree tree) {
  LDP_CHECK(tree.shape().domain() == shape_.domain());
  LDP_CHECK(tree.shape().fanout() == shape_.fanout());
  tree_ = std::move(tree);
}

AheadWireReport AheadClient::EncodePhase2(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  LDP_CHECK_MSG(tree_.has_value(), "phase 2 requires the tree broadcast");
  AheadWireReport report;
  report.phase = 2;
  report.level =
      1 + static_cast<uint32_t>(rng.UniformInt(tree_->num_levels()));
  uint64_t frontier = tree_->FrontierIndex(report.level, value);
  report.node = GrrPerturb(frontier, tree_->FrontierSize(report.level),
                           eps_, rng);
  return report;
}

std::vector<uint8_t> AheadClient::EncodePhase2Serialized(uint64_t value,
                                                         Rng& rng) const {
  return SerializeReport(AheadLayout{}, EncodePhase2(value, rng));
}

std::vector<AheadWireReport> AheadClient::EncodePhase2Users(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<AheadWireReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(EncodePhase2(value, rng));
  }
  return reports;
}

std::vector<uint8_t> AheadClient::EncodePhase2UsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeReportBatch(AheadLayout{}, EncodePhase2Users(values, rng));
}

// --- AheadServer ----------------------------------------------------------

AheadServer::AheadServer(uint64_t domain, uint64_t fanout, double eps,
                         const AheadServerConfig& config)
    : AheadServer(std::make_unique<AheadMechanism>(
          domain, eps,
          AheadConfig{.fanout = fanout,
                      .oracle = OracleKind::kGrr,
                      .max_depth = config.max_depth,
                      .threshold_scale = config.threshold_scale,
                      .consistency = config.consistency,
                      .nonnegativity = config.nonnegativity})) {}

AheadServer::AheadServer(std::unique_ptr<RangeMechanism> mechanism)
    : ReportServer(std::move(mechanism)) {
  for (uint32_t l = 1; l <= shape().height(); ++l) {
    phase1_.push_back(AsGrr(mutable_ahead().phase1_oracle(l)));
  }
}

std::vector<uint8_t> AheadServer::BuildTree() {
  if (!tree_built()) {
    // The split threshold needs the phase-2 population, which the server
    // cannot know before broadcasting the tree: it assumes the deployment
    // sends phases of comparable size (threshold_scale is the tuning knob
    // when that is off). GRR's phase-1 decode draws no randomness.
    Rng unused;
    AdoptTree(ahead().BuildTree(phase1_reports(), unused));
  }
  return TreeMessage();
}

std::vector<uint8_t> AheadServer::TreeMessage() const {
  return SerializeAheadTree(shape().domain(), shape().fanout(), tree());
}

std::optional<AdaptiveTree> AheadServer::ParseOwnTree(
    std::span<const uint8_t> bytes) const {
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> tree;
  if (ParseAheadTree(bytes, &domain, &fanout, &tree) != ParseError::kOk ||
      domain != shape().domain() || fanout != shape().fanout()) {
    return std::nullopt;
  }
  return tree;
}

void AheadServer::AdoptTree(AdaptiveTree tree) {
  mutable_ahead().InstallTree(std::move(tree));
  for (uint32_t l = 1; l <= this->tree().num_levels(); ++l) {
    frontier_.push_back(AsGrr(mutable_ahead().frontier_oracle(l)));
  }
}

bool AheadServer::InstallTree(std::span<const uint8_t> bytes) {
  if (finalized_) return false;
  std::optional<AdaptiveTree> tree = ParseOwnTree(bytes);
  if (!tree.has_value()) return false;
  // SplitNodes is the canonical form, whatever order the incoming bytes
  // gave their splits.
  if (tree_built()) return tree->SplitNodes() == this->tree().SplitNodes();
  AdoptTree(std::move(*tree));
  return true;
}

void AheadServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [p1 varint][p2 varint][height varint]
  // [per complete level: NodesAtLevel(l) x count u64]
  // [tree u8][tree? length-prefixed kAheadTree bytes
  //           + per frontier level: FrontierSize(l) x count u64]
  AppendVarU64(out, phase1_reports());
  AppendVarU64(out, phase2_reports());
  AppendVarU64(out, shape().height());
  for (const GrrOracle* level : phase1_) level->AppendState(out);
  AppendU8(out, tree_built() ? 1 : 0);
  if (tree_built()) {
    AppendLengthPrefixedBytes(out, TreeMessage());
    for (const GrrOracle* level : frontier_) level->AppendState(out);
  }
}

bool AheadServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t p1 = 0;
  uint64_t p2 = 0;
  uint64_t height = 0;
  if (!reader.ReadVarU64(&p1) || !reader.ReadVarU64(&p2) ||
      !reader.ReadVarU64(&height)) {
    return false;
  }
  // Cross-check against this server's own shape, never an allocation size.
  if (height != shape().height()) return false;
  for (GrrOracle* level : phase1_) {
    if (!level->RestoreState(reader)) return false;
  }
  uint8_t has_tree = 0;
  if (!reader.ReadU8(&has_tree) || has_tree > 1) return false;
  if (has_tree == 1) {
    std::span<const uint8_t> tree_bytes;
    if (!reader.ReadLengthPrefixedBytes(&tree_bytes)) return false;
    std::optional<AdaptiveTree> tree = ParseOwnTree(tree_bytes);
    if (!tree.has_value()) return false;
    // Frontier sizes come from the parsed tree, whose node count
    // ParseAheadTree capped (kMaxAheadTreeNodes).
    AdoptTree(std::move(*tree));
    // Canonical-form check: the embedded bytes must equal the tree's BFS
    // re-serialization, so restored state re-serializes identically.
    if (!std::ranges::equal(TreeMessage(), tree_bytes)) return false;
    for (GrrOracle* level : frontier_) {
      if (!level->RestoreState(reader)) return false;
    }
  }
  // The totals must be the tallies' sums: p1 sets the split threshold,
  // so a forged one would change the tree every shard encodes against. A
  // tree-less body has no phase-2 tallies, so its p2 must be 0.
  return reader.AtEnd() && TotalReports(phase1_) == p1 &&
         TotalReports(frontier_) == p2;
}

std::unique_ptr<service::AggregatorServer> AheadServer::DoCloneEmpty() const {
  return std::unique_ptr<AheadServer>(
      new AheadServer(mechanism().CloneEmpty()));
}

service::MergeStatus AheadServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<AheadServer&>(other);
  // Post-processing knobs are not aggregate state, but merged shards must
  // agree on how the combined aggregate will be finalized.
  const AheadConfig& mine = ahead().config();
  const AheadConfig& theirs = o.ahead().config();
  if (theirs.threshold_scale != mine.threshold_scale ||
      o.ahead().max_depth() != ahead().max_depth() ||
      theirs.consistency != mine.consistency ||
      theirs.nonnegativity != mine.nonnegativity) {
    return service::MergeStatus::kConfigMismatch;
  }
  // Phase-2 reports are encoded against one specific decomposition;
  // counts over two different trees can never be summed. A side that
  // never closed phase 1 adopts the shard's tree.
  if (o.tree_built()) {
    if (!tree_built()) {
      AdoptTree(o.tree());
    } else if (tree().SplitNodes() != o.tree().SplitNodes()) {
      return service::MergeStatus::kStateMismatch;
    }
  }
  return MechanismServer::DoMergeFrom(other);
}

void AheadServer::DoFinalize() {
  if (!tree_built()) BuildTree();
  MechanismServer::DoFinalize();
}

}  // namespace ldp::protocol
