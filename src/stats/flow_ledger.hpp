// Per-flow result records and the queries the paper's figures need:
// AFCT, tail FCT, FCT CDF, deadline-miss ratio, goodput.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "transport/tcp_params.hpp"
#include "util/summary_stats.hpp"
#include "util/units.hpp"

namespace tlbsim::stats {

struct FlowResult {
  transport::FlowSpec spec;
  bool completed = false;
  SimTime fct;
  std::uint64_t dupAcks = 0;          ///< dup-ACKs the sender received
  std::uint64_t acks = 0;             ///< total ACKs the sender received
  std::uint64_t outOfOrderPackets = 0;  ///< receiver-side reordered arrivals
  std::uint64_t dataPackets = 0;      ///< receiver-side data arrivals
  std::uint64_t fastRetransmits = 0;
  std::uint64_t timeouts = 0;

  bool missedDeadline() const {
    return spec.deadline > 0_ns && (!completed || fct > spec.deadline);
  }
  /// Application goodput over the flow's lifetime, bits/sec.
  double goodputBps() const {
    return completed && fct > 0_ns
               ? static_cast<double>(spec.size.bytes()) * 8.0 / toSeconds(fct)
               : 0.0;
  }
};

class FlowLedger {
 public:
  using Predicate = std::function<bool(const FlowResult&)>;

  void add(FlowResult r) { flows_.push_back(std::move(r)); }
  /// The record of the i-th flow added, to fill in place.
  FlowResult& at(std::size_t i) { return flows_[i]; }

  std::size_t size() const { return flows_.size(); }
  const std::vector<FlowResult>& flows() const { return flows_; }

  /// Standard flow classes (paper: short < 100 KB).
  static bool isShort(const FlowResult& r) {
    return r.spec.size < transport::kShortFlowSize;
  }
  static bool isLong(const FlowResult& r) { return !isShort(r); }

  std::size_t count(const Predicate& pred) const;
  std::size_t completedCount(const Predicate& pred) const;

  /// Mean FCT (seconds) over completed flows matching `pred`.
  double afct(const Predicate& pred) const;
  /// FCT percentile (seconds) over completed flows matching `pred`.
  double fctPercentile(const Predicate& pred, double p) const;
  /// FCT samples (seconds), for CDFs.
  SampleSet fctSamples(const Predicate& pred) const;

  /// Fraction of deadline-carrying flows (matching pred) that missed.
  double deadlineMissRatio(const Predicate& pred) const;

  /// Mean per-flow goodput (bits/sec) over completed flows matching pred.
  double meanGoodputBps(const Predicate& pred) const;

  /// Aggregate reordering metrics over flows matching pred.
  double dupAckRatio(const Predicate& pred) const;
  double outOfOrderRatio(const Predicate& pred) const;

 private:
  std::vector<FlowResult> flows_;
};

}  // namespace tlbsim::stats
