// The app layer's single FlowSpec construction point.
//
// Every RPC flow the service puts on the wire — requests, responses,
// retries, duplicates — is minted here, so flow-id allocation stays
// centralized (monotonic, collision-free with any static workload) and
// tlbsim_lint can ban `transport::FlowSpec` construction everywhere else
// under src/app (rule app-flowspec-factory).
#pragma once

#include "transport/tcp_params.hpp"
#include "util/units.hpp"

namespace tlbsim::app {

/// Hands out monotonically increasing flow ids starting at `firstId`.
class FlowFactory {
 public:
  explicit FlowFactory(FlowId firstId) : nextId_(firstId) {}

  /// Mint the id of one RPC flow. The service mints in launch order, when
  /// it decides to launch; the flow starts (rpcFlow) in a later event.
  FlowId mint() {
    ++minted_;
    return nextId_++;
  }

  /// The spec of the minted flow `id`, starting at `start`. Deadline is
  /// left unset: the SLO is a query-level property tracked by the service,
  /// not a per-flow one.
  static transport::FlowSpec rpcFlow(FlowId id, net::HostId src,
                                     net::HostId dst, ByteCount size,
                                     SimTime start);

  std::uint64_t flowsMinted() const { return minted_; }

 private:
  FlowId nextId_;
  std::uint64_t minted_ = 0;
};

}  // namespace tlbsim::app
