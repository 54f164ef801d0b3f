// A wire server that owns one core RangeMechanism adds only what the
// wire needs: checking decoded reports before they reach the mechanism's
// oracles, and the state-snapshot body codec. Finalize, queries,
// uncertainty and merge are the mechanism's own — so a served answer,
// stddev included, is bit-identical to the in-process mechanism fed the
// same reports. Subclasses: HrrMechanismServer (hrr_server.h) and
// AheadServer (ahead_protocol.h).

#ifndef LDPRANGE_PROTOCOL_MECHANISM_SERVER_H_
#define LDPRANGE_PROTOCOL_MECHANISM_SERVER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/range_mechanism.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// An AggregatorServer whose aggregate is one core RangeMechanism.
class MechanismServer : public service::AggregatorServer {
 public:
  uint64_t domain() const override { return mechanism_->domain_size(); }

  double RangeQuery(uint64_t a, uint64_t b) const override {
    return mechanism_->RangeQuery(a, b);
  }
  /// The mechanism's own uncertainty accounting (see its header).
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override {
    return mechanism_->RangeQueryWithUncertainty(a, b);
  }
  std::vector<double> EstimateFrequencies() const override {
    return mechanism_->EstimateFrequencies();
  }

 protected:
  explicit MechanismServer(std::unique_ptr<RangeMechanism> mechanism)
      : mechanism_(std::move(mechanism)) {}

  /// The core mechanism this server aggregates into.
  const RangeMechanism& mechanism() const { return *mechanism_; }
  RangeMechanism& mutable_mechanism() { return *mechanism_; }

  void DoFinalize() override {
    // The wire oracles (HRR, GRR) draw no randomness at finalize; the
    // mechanism API still takes an Rng.
    Rng unused;
    mechanism_->Finalize(unused);
  }
  double state_epsilon() const override { return mechanism_->epsilon(); }
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override {
    // The base validated kind + configuration, and each kind names
    // exactly one subclass, so the downcast is safe.
    mechanism_->MergeFrom(*static_cast<MechanismServer&>(other).mechanism_);
    return service::MergeStatus::kOk;
  }

 private:
  std::unique_ptr<RangeMechanism> mechanism_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_MECHANISM_SERVER_H_
