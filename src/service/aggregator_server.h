// The one server interface behind every LDP aggregator in this repo.
//
// The paper's aggregator is a single logical service: it absorbs noisy
// reports off the wire and answers range queries. This interface is that
// shape, extracted from the four mechanism servers that used to be
// copy-alike siblings (FlatHrrServer, HaarHrrServer, TreeHrrServer,
// AheadServer). Everything a deployment routes by — serialized ingestion,
// accept/reject accounting, finalize-once discipline,
// range/frequency/quantile queries — lives here. Every subclass is a
// wire adapter over one core estimator (the 1-D servers through
// protocol/mechanism_server.h, the grid over HierarchicalGrid): it
// checks decoded reports and owns the state-snapshot body, and the
// estimate math is the core's (decode comes from
// protocol/report_codec.h's ReportServer).
//
// The streaming service (service/aggregator_service.h) hosts any number
// of AggregatorServer instances and drives them entirely through this
// interface, which is what lets one ingestion/query plane serve all four
// mechanism families (and the next one) without per-mechanism plumbing.

#ifndef LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_
#define LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/range_mechanism.h"
#include "obs/metrics.h"
#include "protocol/envelope.h"
#include "service/server_stats.h"
#include "service/state_wire.h"

namespace ldp::service {

/// Abstract wire-facing LDP aggregator: serialized reports in, range
/// estimates out. Lifecycle: any number of Absorb* calls, exactly one
/// Finalize(), then any number of queries (pure post-processing).
class AggregatorServer {
 public:
  virtual ~AggregatorServer() = default;

  AggregatorServer(const AggregatorServer&) = delete;
  AggregatorServer& operator=(const AggregatorServer&) = delete;

  /// Short mechanism identifier for logs and bench tables ("FlatHrr",
  /// "HaarHrr", "TreeHrr", "Ahead").
  virtual std::string Name() const = 0;

  /// Domain size D; queries address values in [0, D). Per-axis for
  /// multidim servers (dimensions() > 1).
  virtual uint64_t domain() const = 0;

  /// Number of axes the server's mechanism covers; 1 for the classic 1-D
  /// servers. Boxes handed to BoxQuery* carry dimensions() intervals.
  virtual uint32_t dimensions() const { return 1; }

  /// Parses + ingests one serialized report; false (counted as a
  /// rejection) on any parse or range failure. Total over arbitrary
  /// bytes — a server must reject garbage, never crash on it.
  virtual bool AbsorbSerialized(std::span<const uint8_t> bytes) = 0;

  /// Parses + ingests one framed v2 batch message. On kOk, per-item
  /// malformed/out-of-range reports are counted as rejections and
  /// `accepted` (may be null) receives the number absorbed; a structural
  /// failure counts one rejection for the whole message. Non-virtual:
  /// the base times every call into absorb_batch_latency() around the
  /// mechanism-specific DoAbsorbBatchSerialized.
  protocol::ParseError AbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                             uint64_t* accepted = nullptr);

  /// Debiases the aggregate and builds the query structure. Must be
  /// called exactly once, after all reports and before any query.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Estimated fraction of users with value in the inclusive range
  /// [a, b]; requires a <= b < domain() and a finalized server.
  virtual double RangeQuery(uint64_t a, uint64_t b) const = 0;

  /// RangeQuery plus the mechanism's analytic uncertainty for that range:
  /// its per-node variance accounting — the oracle variances summed over
  /// the items, tree nodes, Haar coefficients or grid cells the range
  /// uses — not the paper's worst-case envelopes (core/variance.h). The
  /// wire query plane ships this as (estimate, variance) pairs. Pure
  /// virtual on purpose: a defaulted 0 (or even +inf) here would let a
  /// new mechanism silently ship a wrong confidence bound — deciding the
  /// accounting is part of implementing a server.
  virtual RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                                  uint64_t b) const = 0;

  /// Axis-aligned box query (box.size() == dimensions(), inclusive
  /// per-axis bounds). The default forwards 1-axis boxes to RangeQuery,
  /// so every 1-D server answers dimensions() == 1 box queries; multidim
  /// servers override.
  virtual double BoxQuery(std::span<const AxisInterval> box) const;
  virtual RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const;

  /// Estimated per-item frequency vector (length = domain()).
  virtual std::vector<double> EstimateFrequencies() const = 0;

  /// Serializes this server's complete partial-aggregate state as one
  /// framed kStateSnapshot message (service/state_wire.h): configuration
  /// header + canonical mechanism state body. Call on a quiesced,
  /// *unfinalized* server — the snapshot is the shard's hand-off to a
  /// query node, taken after ingestion drains and instead of finalizing
  /// locally. Canonical: a restored snapshot re-serializes to the same
  /// bytes.
  std::vector<uint8_t> SerializeState() const;

  /// Merges one serialized kStateSnapshot into this server. Total over
  /// adversarial bytes: parses + validates the snapshot against this
  /// server's kind and exact configuration (eps by f64 bit pattern),
  /// restores the body into a fresh empty clone, and folds the clone in
  /// via MergeFrom — so a snapshot that fails mid-restore never leaves
  /// partial state behind. Returns a typed MergeStatus; kOk means the
  /// state and its accept/reject accounting were absorbed.
  MergeStatus MergeSerializedState(std::span<const uint8_t> snapshot);

  /// The validate-and-clone half of MergeSerializedState: parses the
  /// snapshot, checks it against this server's kind and exact
  /// configuration, and restores the body (plus its accept/reject
  /// accounting) into a fresh empty clone WITHOUT touching this server.
  /// On kOk `*shard` owns the restored clone. The service merge plane
  /// buffers these per fan-in group, then reduces them pairwise once
  /// every shard has arrived.
  MergeStatus RestoreShardFromSnapshot(
      std::span<const uint8_t> snapshot,
      std::unique_ptr<AggregatorServer>* shard) const;

  /// A fresh, empty server with this server's exact configuration — the
  /// merge-shard contract (mirrors FrequencyOracle::CloneEmpty).
  std::unique_ptr<AggregatorServer> CloneEmpty() const { return DoCloneEmpty(); }

  /// Folds `other`'s aggregate state and ingestion accounting into this
  /// server. Both must be unfinalized and identically configured. May
  /// consume `other` (OLH pending queues splice in O(1)) — merge a shard
  /// once, then discard it. Aggregates are integer sums, so the result is
  /// bit-identical for every merge order and pairing.
  MergeStatus MergeFrom(AggregatorServer& other);

  /// Smallest item whose estimated prefix mass reaches phi — the binary
  /// search every server used to reimplement (paper Section 4.7).
  uint64_t QuantileQuery(double phi) const;

  /// Shared ingestion accounting. accepted_reports()/rejected_reports()
  /// are the historical accessors; stats() is a coherent value snapshot
  /// of the live counters (lock-free — safe to call while another thread
  /// is absorbing; exact once ingestion for this server quiesces).
  ServerStats stats() const { return stats_.Snapshot(); }
  uint64_t accepted_reports() const { return stats_.accepted(); }
  uint64_t rejected_reports() const { return stats_.rejected(); }

  /// Stage latency histograms, recorded by the base around every
  /// AbsorbBatchSerialized call and the one DoFinalize — nanoseconds,
  /// snapshotted lock-free for the service's stats plane.
  obs::HistogramSnapshot absorb_batch_latency() const {
    return absorb_batch_ns_.Snapshot();
  }
  obs::HistogramSnapshot finalize_latency() const {
    return finalize_ns_.Snapshot();
  }

 protected:
  AggregatorServer() = default;

  /// Mechanism-specific finalize body; the base enforces the once-only
  /// discipline around it.
  virtual void DoFinalize() = 0;

  /// Mechanism-specific batch ingestion body behind AbsorbBatchSerialized
  /// (which documents the contract and owns the timing).
  virtual protocol::ParseError DoAbsorbBatchSerialized(
      std::span<const uint8_t> bytes, uint64_t* accepted) = 0;

  /// Which StateKind this server's snapshots carry.
  virtual StateKind state_kind() const = 0;

  /// The tree fanout named in the snapshot header; 0 for mechanisms
  /// without one (flat, haar — whose dyadic structure is implied by the
  /// domain).
  virtual uint64_t state_fanout() const { return 0; }

  /// The privacy budget named in the snapshot header. Compared by f64 bit
  /// pattern on merge: servers that disagree in the last ulp ran
  /// different mechanisms.
  virtual double state_epsilon() const = 0;

  /// Appends the mechanism-specific state body (everything beyond the
  /// snapshot header) in its canonical form.
  virtual void AppendStateBody(std::vector<uint8_t>& out) const = 0;

  /// Restores a state body into this (freshly cloned, empty) server.
  /// Total over adversarial bytes: false on any truncation, forged
  /// count, or cross-check failure — the caller discards the clone then,
  /// so partially-written state never escapes.
  virtual bool RestoreStateBody(std::span<const uint8_t> body) = 0;

  /// CloneEmpty body: a fresh default-state instance of the concrete
  /// class with identical configuration.
  virtual std::unique_ptr<AggregatorServer> DoCloneEmpty() const = 0;

  /// MergeFrom body: fold `other`'s aggregate (already validated to be
  /// the same concrete class and configuration; may consume it). Returns
  /// kStateMismatch when the states themselves disagree (two different
  /// AHEAD trees); the base handles the accept/reject accounting.
  virtual MergeStatus DoMergeFrom(AggregatorServer& other) = 0;

  ServerCounters stats_;
  bool finalized_ = false;

 private:
  obs::LatencyHistogram absorb_batch_ns_;
  obs::LatencyHistogram finalize_ns_;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_
