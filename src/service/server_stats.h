// Shared acceptance/rejection accounting for every aggregator server.
//
// Before the service layer existed, each of the four protocol servers
// (flat/haar/tree/AHEAD) carried its own `accepted_`/`rejected_` pair with
// subtly copy-pasted bookkeeping. ServerStats is the one struct they all
// report through now: a report (or a structurally-rejected message) is
// counted exactly once, on the ingestion call that saw it. A batch
// message adds its accepted and rejected totals once, when the whole
// message has been absorbed (protocol/report_codec.h's ReportServer), so
// a concurrent scrape sees a batch's counts all at once, never part of
// one.

#ifndef LDPRANGE_SERVICE_SERVER_STATS_H_
#define LDPRANGE_SERVICE_SERVER_STATS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace ldp::service {

/// Ingestion counts of one aggregator server, as a plain value snapshot.
/// `accepted` counts reports folded into the aggregate; `rejected` counts
/// everything turned away — malformed bytes, out-of-range fields,
/// wrong-phase reports, and whole structurally-invalid messages (one
/// rejection per message).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;

  /// Total ingestion decisions made.
  uint64_t ingested() const { return accepted + rejected; }

  bool operator==(const ServerStats&) const = default;
};

/// The live accounting behind ServerStats, on lock-free obs::Counter
/// atomics so ingestion workers and stats scrapers never race (the
/// service snapshots these without stopping ingestion). Callers add a
/// whole message's counts in one call: an atomic add per report costs
/// as much as absorbing the report.
class ServerCounters {
 public:
  void CountAccepted(uint64_t n = 1) { accepted_.Add(n); }
  void CountRejected(uint64_t n = 1) { rejected_.Add(n); }

  uint64_t accepted() const { return accepted_.value(); }
  uint64_t rejected() const { return rejected_.value(); }

  ServerStats Snapshot() const { return ServerStats{accepted(), rejected()}; }

 private:
  obs::Counter accepted_;
  obs::Counter rejected_;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_SERVER_STATS_H_
