// Partition-aggregate RPC service: the closed-loop application layer.
//
// A Service generates queries (Poisson or closed-loop think-time arrivals,
// see AppConfig::arrival), and runs each through a per-query state
// machine:
//
//   issue -> fan out `fanOut` request flows (aggregator -> workers drawn
//   from the placement policy) -> each worker replies with a CDF-drawn
//   response after an exponential service time -> the query completes when
//   the last response lands (QCT = completion - issue).
//
// Robustness: a per-query retry timer re-requests every slot still missing
// its response on *fresh flow ids* (fresh ECMP hashes — the recovery path
// when a fault kills the original worker path), bounded by maxRetries; an
// optional RepFlow-style knob duplicates the request up front for slots
// with short responses (first response wins). Old attempts are never
// aborted — their packets stay on the wire, exactly like a real network —
// a late response for an already-done slot is simply ignored.
//
// Memory: endpoints live in a transport::EndpointPool, which reuses a
// finished flow's pair once the flow has drained, and a finished query
// frees its slots once its last attempt has ended. What a run holds grows
// with the queries and flows in flight, not with how many it has made.
//
// Determinism: all randomness flows through one service-owned Rng seeded
// from the experiment seed; flows are minted by a single FlowFactory with
// monotonically increasing ids; event order is the scheduler's strict
// (time, seq) order. Two runs with the same config and seed produce
// byte-identical query ledgers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "app/app_config.hpp"
#include "app/flow_factory.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "transport/endpoint_pool.hpp"
#include "transport/tcp_params.hpp"
#include "util/rng.hpp"
#include "util/summary_stats.hpp"
#include "workload/flow_size_dist.hpp"

namespace tlbsim::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace tlbsim::obs

namespace tlbsim::app {

class QueryProbe;

class Service {
 public:
  /// Called for every sender/receiver pair the service builds, inside the
  /// flow's start event, before its SYN. The harness uses this to register
  /// app flows with the InvariantAuditor (src/check may depend on src/app,
  /// not vice versa). Cold path: one call per RPC flow.
  // tlbsim-lint: allow(std-function-hot-path)
  using EndpointHook = std::function<void(const transport::TcpSender&,
                                          const transport::TcpReceiver&)>;

  /// `firstFlowId` must be past every statically-generated flow id so app
  /// flows never collide with a cfg.flows workload sharing the run.
  Service(sim::Simulator& simr, net::Fabric& topo,
          const AppConfig& cfg, const transport::TcpParams& tcp,
          std::uint64_t seed, FlowId firstFlowId);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  void setQueryProbe(QueryProbe* probe) { probe_ = probe; }
  /// Per-sender trace events, and each sender's transport counts added to
  /// `metrics` when its pair is reused (either may be null). The pairs
  /// still in endpoints() at run end are the caller's to add.
  void installObs(obs::MetricsRegistry* metrics, obs::EventTrace* trace);
  void setEndpointHook(EndpointHook hook) { endpointHook_ = std::move(hook); }
  /// Called for a finished pair just before the endpoint pool reuses its
  /// storage for a later flow (the flow has drained; its endpoints are
  /// destroyed right after). The harness stops auditing the flow here.
  void setRetireHook(EndpointHook hook) { retireHook_ = std::move(hook); }
  /// The pool holding this service's endpoints.
  transport::EndpointPool& endpoints() { return pool_; }

  /// Arm the arrival process; queries start issuing at the current time.
  void start();

  /// True once every configured query completed. Queries that can never
  /// complete (retries exhausted against a dead path) leave done() false;
  /// the run loop's maxDuration is the backstop, and finalize() books the
  /// stragglers as incomplete.
  bool done() const { return completed_ >= cfg_.queries; }

  /// Close the books at run end: still-open queries are recorded as
  /// incomplete (and as SLO misses when an SLO is configured). Idempotent.
  void finalize(SimTime now);

  // --- outcome accessors (stable after finalize) ------------------------
  const AppConfig& config() const { return cfg_; }
  int queriesLaunched() const { return launched_; }
  int queriesCompleted() const { return completed_; }
  /// SLO misses: completed-late queries plus (after finalize) unfinished
  /// ones, when an SLO is configured.
  int sloMisses() const { return sloMisses_; }
  std::uint64_t retriesIssued() const { return retries_; }
  std::uint64_t duplicatesIssued() const { return duplicates_; }
  std::uint64_t flowsCreated() const { return factory_.flowsMinted(); }
  /// The spec of an RPC flow this service started whose endpoints have not
  /// been reused yet (it is live or draining), or null for any other flow
  /// id. O(1): a lookup in the endpoint pool's live-flow index.
  const transport::FlowSpec* rpcFlow(FlowId id) const;
  /// QCT of every completed query, seconds, in completion order.
  const SampleSet& qctSeconds() const { return qctSeconds_; }

  /// Open-query accounting for the InvariantAuditor: verifies counter
  /// conservation and that every open query can still make progress (an
  /// armed retry timer, or at least one live attempt keeping transport
  /// events pending). Appends one message per violation; returns the
  /// violation count.
  int auditOpenQueries(std::vector<std::string>* out) const;

 private:
  struct Slot {
    net::HostId worker = -1;
    ByteCount responseBytes;
    bool done = false;
  };
  struct Query {
    int id = -1;
    net::HostId aggregator = -1;
    SimTime start;
    /// Freed once the query is finished and its last attempt has ended.
    std::vector<Slot> slots;
    int remaining = 0;     ///< slots still missing a response
    int retries = 0;
    int duplicates = 0;
    int flowsLaunched = 0;
    /// Attempts whose request->service->response chain has not ended.
    int liveAttempts = 0;
    bool finished = false;
    sim::EventHandle retryTimer;
  };

  /// Draws the next Poisson arrival and posts it, unless it lies past the
  /// clock: then no later query arrives.
  void scheduleArrival();
  void issueQuery();
  void pickWorkers(net::HostId aggregator, std::vector<Slot>& slots);
  /// Launch one request attempt for a slot (fresh flow ids each call).
  void launchAttempt(std::size_t qi, std::size_t si);
  void launchResponse(std::size_t qi, std::size_t si);
  void onRequestDone(std::size_t qi, std::size_t si);
  void onResponseDone(std::size_t qi, std::size_t si);
  void onRetryTimer(std::size_t qi);
  void completeQuery(std::size_t qi);
  /// Frees a finished query's slots once no attempt of it is live: a
  /// late request still reads its slot to launch the response.
  void releaseSlots(Query& q);
  /// Mint slot `si`'s request (aggregator to worker) or response flow now
  /// and post its start event, the one TcpSender::start() would post.
  void launchFlow(std::size_t qi, std::size_t si, bool response);
  /// The start event: the pool builds the pair and sends the SYN.
  void startFlow(FlowId id, std::size_t qi, std::size_t si, bool response);

  sim::Simulator& sim_;
  net::Fabric& topo_;
  AppConfig cfg_;
  Rng rng_;
  FlowId firstFlowId_;
  FlowFactory factory_;
  workload::FlowSizeDistribution responseDist_;

  QueryProbe* probe_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventTrace* trace_ = nullptr;
  EndpointHook endpointHook_;
  EndpointHook retireHook_;

  std::vector<Query> queries_;
  /// A pair is reused only once its flow has drained, so in-flight packets
  /// of superseded attempts always find their handler.
  transport::EndpointPool pool_;

  int launched_ = 0;
  int completed_ = 0;
  int sloMisses_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t duplicates_ = 0;
  SampleSet qctSeconds_;
  int spreadCursor_ = 0;  ///< kSpread placement rotation across queries
  bool finalized_ = false;
};

}  // namespace tlbsim::app
