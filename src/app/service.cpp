#include "app/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "app/query_probe.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace tlbsim::app {

namespace {

workload::FlowSizeDistribution makeResponseDist(const AppConfig& cfg) {
  switch (cfg.responseDist) {
    case ResponseDist::kWebSearch:
      return workload::FlowSizeDistribution::webSearch(cfg.responseBytes);
    case ResponseDist::kDataMining:
      return workload::FlowSizeDistribution::dataMining(cfg.responseBytes);
    case ResponseDist::kFixed:
      break;
  }
  return workload::FlowSizeDistribution::fixed(cfg.responseBytes);
}

}  // namespace

Service::Service(sim::Simulator& simr, net::Fabric& topo,
                 const AppConfig& cfg, const transport::TcpParams& tcp,
                 std::uint64_t seed, FlowId firstFlowId)
    : sim_(simr),
      topo_(topo),
      cfg_(cfg),
      // Decorrelated from the harness's per-leaf selector salts.
      rng_(splitmix64(seed ^ 0x61707073ULL)),
      firstFlowId_(firstFlowId),
      factory_(firstFlowId),
      responseDist_(makeResponseDist(cfg)),
      pool_(simr, topo, tcp) {
  TLBSIM_ASSERT(cfg_.fanOut > 0, "app.fan-out must be positive");
  TLBSIM_ASSERT(topo_.numHosts() > 1, "app layer needs at least two hosts");
  pool_.setLaunchHook([this](transport::TcpSender& snd,
                             transport::TcpReceiver& rcv, std::uint64_t) {
    if (trace_ != nullptr) snd.installTrace(*trace_);
    if (endpointHook_) endpointHook_(snd, rcv);
  });
  pool_.setRetireHook([this](transport::TcpSender& snd,
                             transport::TcpReceiver& rcv, std::uint64_t) {
    if (metrics_ != nullptr) snd.addCountersTo(*metrics_);
    if (retireHook_) retireHook_(snd, rcv);
  });
}

Service::~Service() = default;

const transport::FlowSpec* Service::rpcFlow(FlowId id) const {
  if (id < firstFlowId_) return nullptr;
  const transport::TcpSender* sender = pool_.find(id);
  return sender != nullptr ? &sender->flow() : nullptr;
}

void Service::installObs(obs::MetricsRegistry* metrics,
                         obs::EventTrace* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void Service::start() {
  if (!cfg_.enabled()) return;
  queries_.reserve(static_cast<std::size_t>(cfg_.queries));
  if (cfg_.arrival == Arrival::kPoisson) {
    TLBSIM_ASSERT(cfg_.qps > 0.0, "app.qps must be positive");
    scheduleArrival();
    return;
  }
  const int initial = std::min(std::max(cfg_.concurrency, 1), cfg_.queries);
  for (int i = 0; i < initial; ++i) issueQuery();
}

void Service::scheduleArrival() {
  const std::optional<SimTime> gap = util::delayFrom(
      sim_.now(), rng_.exponential(1e6 / cfg_.qps), kMicrosecond);
  if (!gap.has_value()) return;
  sim_.post(*gap, [this] {
    issueQuery();
    if (launched_ < cfg_.queries) scheduleArrival();
  });
}

void Service::issueQuery() {
  if (launched_ >= cfg_.queries) return;
  const std::size_t qi = queries_.size();
  queries_.emplace_back();
  Query& q = queries_[qi];
  q.id = launched_++;
  const int numHosts = topo_.numHosts();
  q.aggregator = static_cast<net::HostId>(
      cfg_.aggregator >= 0 ? cfg_.aggregator % numHosts : q.id % numHosts);
  q.start = sim_.now();
  q.slots.resize(static_cast<std::size_t>(cfg_.fanOut));
  pickWorkers(q.aggregator, q.slots);
  for (Slot& slot : q.slots) {
    slot.responseBytes = std::max(responseDist_.sample(rng_), ByteCount(1_B));
  }
  q.remaining = cfg_.fanOut;
  if (probe_ != nullptr) {
    probe_->declareQuery(q.id, q.aggregator, cfg_.fanOut, q.start, cfg_.slo);
    for (const Slot& slot : q.slots) {
      probe_->onResponseDrawn(q.id, slot.responseBytes);
    }
  }
  for (std::size_t si = 0; si < queries_[qi].slots.size(); ++si) {
    launchAttempt(qi, si);
    if (cfg_.duplicateThreshold > 0_B &&
        queries_[qi].slots[si].responseBytes < cfg_.duplicateThreshold) {
      ++queries_[qi].duplicates;
      ++duplicates_;
      if (probe_ != nullptr) probe_->onDuplicate(queries_[qi].id);
      launchAttempt(qi, si);
    }
  }
  if (cfg_.timeout > 0_ns && cfg_.maxRetries > 0) {
    queries_[qi].retryTimer =
        sim_.schedule(cfg_.timeout, [this, qi] { onRetryTimer(qi); });
  }
}

void Service::pickWorkers(net::HostId aggregator, std::vector<Slot>& slots) {
  std::vector<net::HostId> candidates;
  if (cfg_.placement == Placement::kSpread) {
    // Access switches other than the aggregator's first, interleaved
    // across access switches, so the fan-out crosses the fabric as widely
    // as possible; a rotating cursor spreads successive queries over
    // different workers.
    const int groups = static_cast<int>(topo_.accessSwitches().size());
    const int aggGroup = topo_.accessOf(aggregator);
    int width = 0;
    for (int g = 0; g < groups; ++g) {
      width = std::max(width, topo_.hostsUnder(g).count);
    }
    for (int h = 0; h < width; ++h) {
      for (int off = 1; off <= groups; ++off) {
        const net::Fabric::HostRange under =
            topo_.hostsUnder((aggGroup + off) % groups);
        const auto host = static_cast<net::HostId>(under.first + h);
        if (h < under.count && host != aggregator) {
          candidates.push_back(host);
        }
      }
    }
    const auto n = candidates.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].worker =
          candidates[(static_cast<std::size_t>(spreadCursor_) + i) % n];
    }
    spreadCursor_ = static_cast<int>(
        (static_cast<std::size_t>(spreadCursor_) + slots.size()) % n);
    return;
  }
  for (int h = 0; h < topo_.numHosts(); ++h) {
    if (static_cast<net::HostId>(h) != aggregator) {
      candidates.push_back(static_cast<net::HostId>(h));
    }
  }
  // Partial Fisher-Yates: the first min(fanOut, hosts-1) slots get a
  // uniform distinct draw; slots past that draw with repeats (fan-out
  // wider than the fabric has workers).
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i < candidates.size()) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.uniformInt(candidates.size() - i));
      std::swap(candidates[i], candidates[j]);
      slots[i].worker = candidates[i];
    } else {
      slots[i].worker =
          candidates[static_cast<std::size_t>(rng_.uniformInt(candidates.size()))];
    }
  }
}

void Service::launchAttempt(std::size_t qi, std::size_t si) {
  Query& q = queries_[qi];
  ++q.liveAttempts;
  ++q.flowsLaunched;
  launchFlow(qi, si, /*response=*/false);
}

void Service::onRequestDone(std::size_t qi, std::size_t si) {
  // Request delivered: the worker computes, then replies.
  const std::optional<SimTime> delay =
      cfg_.serviceTime > 0_ns
          ? util::delayFrom(sim_.now(),
                            rng_.exponential(toMicroseconds(cfg_.serviceTime)),
                            kMicrosecond)
          : SimTime{};
  if (!delay.has_value()) return;  // the reply would start past the clock
  sim_.post(*delay, [this, qi, si] { launchResponse(qi, si); });
}

void Service::launchResponse(std::size_t qi, std::size_t si) {
  ++queries_[qi].flowsLaunched;
  launchFlow(qi, si, /*response=*/true);
}

void Service::onResponseDone(std::size_t qi, std::size_t si) {
  Query& q = queries_[qi];
  --q.liveAttempts;
  // Stale: a superseded attempt or duplicate landed after the whole query
  // (or, below, its slot) was already served. Ignore — the bytes were the
  // cost.
  if (q.finished) {
    releaseSlots(q);
    return;
  }
  Slot& slot = q.slots[si];
  if (slot.done) return;
  slot.done = true;
  --q.remaining;
  if (probe_ != nullptr) {
    probe_->onWorkerDone(q.id, slot.worker, sim_.now() - q.start);
  }
  if (q.remaining == 0) completeQuery(qi);
}

void Service::releaseSlots(Query& q) {
  if (q.liveAttempts == 0) std::vector<Slot>().swap(q.slots);
}

void Service::onRetryTimer(std::size_t qi) {
  Query& q = queries_[qi];
  if (q.finished) return;
  if (q.retries >= cfg_.maxRetries) return;  // budget spent: no re-arm
  ++q.retries;
  ++retries_;
  if (probe_ != nullptr) probe_->onRetry(q.id, sim_.now(), q.remaining);
  for (std::size_t si = 0; si < q.slots.size(); ++si) {
    if (!queries_[qi].slots[si].done) launchAttempt(qi, si);
  }
  queries_[qi].retryTimer =
      sim_.schedule(cfg_.timeout, [this, qi] { onRetryTimer(qi); });
}

void Service::completeQuery(std::size_t qi) {
  Query& q = queries_[qi];
  q.finished = true;
  q.retryTimer.cancel();
  const SimTime qct = sim_.now() - q.start;
  ++completed_;
  qctSeconds_.add(toSeconds(qct));
  const bool miss = cfg_.slo > 0_ns && qct > cfg_.slo;
  if (miss) ++sloMisses_;
  if (probe_ != nullptr) {
    probe_->finishQuery(q.id, true, qct, miss, q.retries, q.duplicates,
                        q.flowsLaunched);
  }
  releaseSlots(q);
  if (cfg_.arrival == Arrival::kClosedLoop && launched_ < cfg_.queries) {
    const std::optional<SimTime> think =
        cfg_.thinkTime > 0_ns
            ? util::delayFrom(sim_.now(),
                              rng_.exponential(toMicroseconds(cfg_.thinkTime)),
                              kMicrosecond)
            : SimTime{};
    if (think.has_value()) sim_.post(*think, [this] { issueQuery(); });
  }
}

void Service::launchFlow(std::size_t qi, std::size_t si, bool response) {
  // The id is minted now, in launch order; the endpoints are built in the
  // start event posted here, where TcpSender::start() would post the SYN.
  const FlowId id = factory_.mint();
  const auto start = [this, id, qi, si, response] {
    startFlow(id, qi, si, response);
  };
  static_assert(sim::EventFn::relocatesByCopy<decltype(start)>(),
                "the start event must stay inline");
  sim_.postAt(sim_.now(), start);
}

void Service::startFlow(FlowId id, std::size_t qi, std::size_t si,
                        bool response) {
  // The attempt is live, so even a finished query still holds the slot.
  const Query& q = queries_[qi];
  TLBSIM_ASSERT(si < q.slots.size(),
                "query %d: flow %llu starts after the query freed its slots",
                q.id, static_cast<unsigned long long>(id));
  const Slot& slot = q.slots[si];
  if (response) {
    pool_.launch(FlowFactory::rpcFlow(id, slot.worker, q.aggregator,
                                      slot.responseBytes, sim_.now()),
                 /*tag=*/0, [this, qi, si] { onResponseDone(qi, si); });
  } else {
    pool_.launch(FlowFactory::rpcFlow(id, q.aggregator, slot.worker,
                                      cfg_.requestBytes, sim_.now()),
                 /*tag=*/0, [this, qi, si] { onRequestDone(qi, si); });
  }
}

void Service::finalize(SimTime now) {
  static_cast<void>(now);
  if (finalized_) return;
  finalized_ = true;
  for (Query& q : queries_) {
    if (q.finished) continue;
    q.retryTimer.cancel();
    if (cfg_.slo > 0_ns) ++sloMisses_;
    if (probe_ != nullptr) {
      probe_->finishQuery(q.id, false, SimTime{}, cfg_.slo > 0_ns, q.retries,
                          q.duplicates, q.flowsLaunched);
    }
  }
}

int Service::auditOpenQueries(std::vector<std::string>* out) const {
  int violations = 0;
  const auto fail = [&](std::string msg) {
    ++violations;
    if (out != nullptr) out->push_back(std::move(msg));
  };
  if (static_cast<int>(queries_.size()) != launched_) {
    fail("query ledger size " + std::to_string(queries_.size()) +
         " != launched counter " + std::to_string(launched_));
  }
  int open = 0;
  for (const Query& q : queries_) {
    if (q.finished) continue;
    ++open;
    int undone = 0;
    for (const Slot& s : q.slots) undone += s.done ? 0 : 1;
    if (undone != q.remaining) {
      fail("query " + std::to_string(q.id) + ": remaining counter " +
           std::to_string(q.remaining) + " != undone slots " +
           std::to_string(undone));
    }
    // Progress guarantee: a query that can still be served has either an
    // armed retry timer or a live attempt whose transport keeps events
    // pending; neither means it would sit open forever (the run loop's
    // maxDuration then books it via finalize, never a hang).
    if (!q.retryTimer.pending() && q.liveAttempts <= 0) {
      fail("query " + std::to_string(q.id) +
           " is stuck: no armed retry timer and no live attempt");
    }
  }
  // After finalize() the stragglers are booked as incomplete-but-closed,
  // so the completed counter intentionally stops covering every query.
  if (!finalized_ && launched_ != completed_ + open) {
    fail("query conservation: launched " + std::to_string(launched_) +
         " != completed " + std::to_string(completed_) + " + open " +
         std::to_string(open));
  }
  return violations;
}

}  // namespace tlbsim::app
