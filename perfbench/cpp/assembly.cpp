#include "assembly.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "harness/scheme.hpp"
#include "lb/flow_state_table.hpp"

namespace perfbench {

using namespace tlbsim;

namespace {

/// Histogram bounds: an exact-zero bucket, then `perDecade` log-spaced
/// buckets per factor of ten from `lo` to `hi`.
std::vector<double> logBounds(double lo, double hi, int perDecade) {
  std::vector<double> b = {0.0};
  for (double v = lo; v <= hi; v *= std::pow(10.0, 1.0 / perDecade)) {
    b.push_back(v);
  }
  return b;
}

/// Median of back-to-back steady_clock reads: subtracted from every
/// sampled span so short spans (a selector decision) are not inflated by
/// the clock itself.
double clockReadNs() {
  std::vector<double> v;
  for (int i = 0; i < 1001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(b - a).count());
  }
  std::nth_element(v.begin(), v.begin() + 500, v.end());
  return v[500];
}

/// Forwarding selector that times every decision span 1-in-N.
class TracedSelector final : public net::UplinkSelector {
 public:
  TracedSelector(std::unique_ptr<net::UplinkSelector> inner, LayerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    if (!LayerTrace::count(trace_.decide)) {
      return inner_->selectUplink(pkt, uplinks);
    }
    const auto t0 = Clock::now();
    const int port = inner_->selectUplink(pkt, uplinks);
    trace_.decideNs.observe(trace_.record(trace_.decide, t0));
    return port;
  }

  void attach(net::Switch& sw, sim::Simulator& simr) override {
    const auto t0 = Clock::now();
    inner_->attach(sw, simr);
    trace_.attachSec += secondsSince(t0);
  }

  const char* name() const override { return inner_->name(); }
  lb::FlowStateTableBase* flowState() override { return inner_->flowState(); }

 private:
  std::unique_ptr<net::UplinkSelector> inner_;
  LayerTrace& trace_;
};

}  // namespace

LayerTrace::LayerTrace()
    : decideNs(logBounds(1.0, 1e6, 20)),
      uplinkWaitUs(logBounds(0.01, 1e5, 20)),
      clockNs_(clockReadNs()) {}

Assembly::Assembly(const harness::ExperimentConfig& cfg, LayerTrace* trace)
    : cfg_(cfg), trace_(trace) {}

Assembly::~Assembly() = default;

double Assembly::build() {
  auto& cfg = cfg_;
  const auto t0 = Clock::now();

  // Derive TLB's physical model inputs from the topology.
  cfg.scheme.numPaths = cfg.topo.numSpines;
  if (cfg.autoFillTlbFromTopology) {
    cfg.scheme.tlb.rtt = cfg.topo.baseRtt();
    cfg.scheme.tlb.linkCapacity = cfg.topo.fabricLinkRate;
    cfg.scheme.tlb.bufferPackets = cfg.topo.bufferPackets;
    cfg.scheme.tlb.mss = cfg.tcp.mss;
    cfg.scheme.tlb.packetWireSize = cfg.tcp.maxSegmentWireSize();
    cfg.scheme.tlb.longFlowWindow = cfg.tcp.receiverWindow;
    cfg.scheme.tlb.qthCapPackets = cfg.topo.ecnThresholdPackets;
  }

  topo_ = std::make_unique<net::LeafSpineTopology>(
      simr_, cfg.topo,
      [&](net::Switch&, int leafIdx) -> std::unique_ptr<net::UplinkSelector> {
        auto sel = harness::makeSelector(
            cfg.scheme,
            cfg.seed * 1315423911ULL + static_cast<std::uint64_t>(leafIdx));
        if (auto* tlb = dynamic_cast<core::Tlb*>(sel.get())) {
          tlbs_.push_back(tlb);
        }
        if (trace_ == nullptr) return sel;
        return std::make_unique<TracedSelector>(std::move(sel), *trace_);
      });
  net::LeafSpineTopology& topo = *topo_;

  for (const auto& f : cfg.flows) {
    if (f.size < cfg.shortThreshold) shortFlows_.insert(f.id);
  }
  qmon_ = std::make_unique<stats::QueueDelayMonitor>(
      [this](FlowId id) { return shortFlows_.contains(id); });
  for (int l = 0; l < topo.numLeaves(); ++l) {
    for (int s = 0; s < topo.numSpines(); ++s) {
      qmon_->installOn(topo.leafUplink(l, s));
    }
  }
  const double topologySec = secondsSince(t0);

  if (trace_ != nullptr) {
    LayerTrace* t = trace_;
    simr_.scheduler().setPeriodicTickHook(
        [t](const char*, SimTime) { ++t->periodicTicks; });
    topo.forEachFabricLink([t](net::Link& link) {
      link.addDropHook([t](const net::Packet&) { ++t->fabricDrops; });
      link.addMarkHook([t](const net::Packet&) { ++t->ecnMarks; });
      link.addFaultDropHook([t](const net::Packet&) { ++t->faultDrops; });
    });
    for (int l = 0; l < topo.numLeaves(); ++l) {
      for (int s = 0; s < topo.numSpines(); ++s) {
        topo.leafUplink(l, s).addDequeueHook(
            [t](const net::Packet&, SimTime wait) {
              t->uplinkWaitUs.observe(toMicroseconds(wait));
            });
      }
    }
  }

  if (!cfg.fault.empty()) {
    fault::FaultMonitor::Config mcfg;
    if (cfg.obsSampleInterval > 0_ns) mcfg.sampleInterval = cfg.obsSampleInterval;
    faultMon_ = std::make_unique<fault::FaultMonitor>(
        topo, simr_, [this](FlowId id) { return !shortFlows_.contains(id); },
        mcfg);
    faultInj_ = std::make_unique<fault::FaultInjector>(cfg.fault, topo, simr_,
                                                       cfg.seed);
    faultInj_->setMonitor(faultMon_.get());
    faultInj_->install();
  }

  receivers_.reserve(cfg.flows.size());
  senders_.reserve(cfg.flows.size());
  for (const auto& f : cfg.flows) {
    receivers_.push_back(std::make_unique<transport::TcpReceiver>(
        simr_, topo.host(f.dst), f, cfg.tcp));
    senders_.push_back(std::make_unique<transport::TcpSender>(
        simr_, topo.host(f.src), f, cfg.tcp,
        [this](transport::TcpSender&) { ++completed_; }));
    addEndpoint(*senders_.back(), *receivers_.back());
    senders_.back()->start();
  }

  if (cfg.app.enabled()) {
    FlowId firstAppFlowId = 1;
    for (const auto& f : cfg.flows) {
      firstAppFlowId = std::max(firstAppFlowId, f.id + 1);
    }
    service_ = std::make_unique<app::Service>(simr_, topo, cfg.app, cfg.tcp,
                                              cfg.seed, firstAppFlowId);
    if (trace_ != nullptr) {
      service_->setEndpointHook([this](const transport::TcpSender& snd,
                                       const transport::TcpReceiver& rcv) {
        addEndpoint(snd, rcv);
      });
    }
    service_->start();
  }

  if (faultMon_ != nullptr) {
    faultMon_->setGoodputProbe([this] {
      ByteCount acked;
      for (std::size_t i = 0; i < cfg_.flows.size(); ++i) {
        if (!shortFlows_.contains(cfg_.flows[i].id)) {
          acked += senders_[i]->bytesAcked();
        }
      }
      return acked;
    });
  }
  return topologySec;
}

void Assembly::addEndpoint(const transport::TcpSender& snd,
                           const transport::TcpReceiver& rcv) {
  allSenders_.push_back(&snd);
  if (trace_ == nullptr) return;
  // Host::bind takes a mutable handler; the service hands out const
  // references to endpoints it owns as non-const objects.
  auto& s = const_cast<transport::TcpSender&>(snd);
  auto& r = const_cast<transport::TcpReceiver&>(rcv);
  topo_->host(static_cast<int>(snd.flow().src))
      .bind(snd.flow().id, &tracedEndpoints_.emplace_back(s, *trace_));
  topo_->host(static_cast<int>(rcv.flow().dst))
      .bind(rcv.flow().id, &tracedEndpoints_.emplace_back(r, *trace_));
}

void Assembly::run() {
  auto& sched = simr_.scheduler();
  const auto more = [&] {
    return (completed_ < cfg_.flows.size() ||
            (service_ != nullptr && !service_->done())) &&
           !sched.empty();
  };
  if (trace_ == nullptr) {
    while (more()) {
      if (!sched.step(cfg_.maxDuration)) break;
    }
    return;
  }
  LayerTrace& t = *trace_;
  bool stepped = true;
  while (stepped && more()) {
    const bool timed = LayerTrace::count(t.step);
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    int n = 0;
    do {
      const std::size_t depth = sched.pendingEvents();
      t.heapDepthSum += depth;
      t.heapDepthPeak = std::max(t.heapDepthPeak, depth);
      stepped = sched.step(cfg_.maxDuration);
      ++n;
    } while (timed && stepped && n < LayerTrace::kStepBurst && more());
    if (timed) {
      t.step.calls += static_cast<std::uint64_t>(n - 1);
      t.record(t.step, t0, static_cast<std::uint64_t>(n));
    }
  }
}

harness::ExperimentResult Assembly::harvest() {
  const auto& cfg = cfg_;
  net::LeafSpineTopology& topo = *topo_;
  harness::ExperimentResult res;
  res.endTime = simr_.now();
  res.executedEvents = simr_.scheduler().executedEvents();
  if (service_ != nullptr) {
    service_->finalize(simr_.now());
    res.appQueriesLaunched = service_->queriesLaunched();
    res.appQueriesCompleted = service_->queriesCompleted();
    res.appSloMisses = service_->sloMisses();
    res.appRetries = service_->retriesIssued();
    res.appDuplicates = service_->duplicatesIssued();
    res.appRpcFlows = service_->flowsCreated();
    res.appQctSeconds = service_->qctSeconds();
  }

  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    stats::FlowResult r;
    r.spec = senders_[i]->flow();
    r.completed = senders_[i]->completed();
    r.fct = r.completed ? senders_[i]->fct() : 0_ns;
    r.dupAcks = senders_[i]->dupAcksReceived();
    r.acks = senders_[i]->acksReceived();
    r.fastRetransmits = senders_[i]->fastRetransmits();
    r.timeouts = senders_[i]->timeouts();
    r.outOfOrderPackets = receivers_[i]->outOfOrderPackets();
    r.dataPackets = receivers_[i]->dataPacketsReceived();
    res.ledger.add(std::move(r));
  }

  res.shortQueueLenPkts = qmon_->shortQueueLenPkts();
  res.shortDelayUsAll = qmon_->shortDelayUs();
  res.longQueueLenPkts = qmon_->longQueueLenPkts();
  res.shortQueueDelayUs = qmon_->shortDelaySeries();

  for (const auto* tlb : tlbs_) res.tlbLongSwitches += tlb->longFlowSwitches();

  SimTime fabricBusy;
  int fabricLinks = 0;
  topo.forEachFabricLink([&](net::Link& link) {
    res.totalDrops += link.drops();
    res.totalEcnMarks += link.queue().ecnMarks();
    res.faultDrops += link.faultDrops();
    fabricBusy += link.busyTime();
    ++fabricLinks;
  });
  if (res.endTime > 0_ns && fabricLinks > 0) {
    res.meanFabricUtilization = toSeconds(fabricBusy) /
                                toSeconds(res.endTime) /
                                static_cast<double>(fabricLinks);
  }

  if (faultInj_ != nullptr) {
    res.faultEventsApplied = faultInj_->eventsApplied();
    res.firstFaultAt = faultMon_->firstDisruptiveAt();
    res.faultAffectedLongFlows = faultMon_->affectedLongFlows();
    res.faultReroutedLongFlows = faultMon_->reroutedLongFlows();
    res.faultMeanRerouteSec = faultMon_->meanRerouteSec();
    res.faultMaxRerouteSec = faultMon_->maxRerouteSec();
    res.faultGoodputDipRatio = faultMon_->goodputDipRatio();
    if (res.firstFaultAt >= 0_ns) {
      double inFlightSum = 0.0, otherSum = 0.0;
      std::size_t inFlightN = 0, otherN = 0;
      for (const auto& r : res.ledger.flows()) {
        if (!r.completed || !stats::FlowLedger::isShort(r)) continue;
        const bool inFlight = r.spec.start <= res.firstFaultAt &&
                              r.spec.start + r.fct > res.firstFaultAt;
        if (inFlight) {
          inFlightSum += toSeconds(r.fct);
          ++inFlightN;
        } else {
          otherSum += toSeconds(r.fct);
          ++otherN;
        }
      }
      if (inFlightN > 0 && otherN > 0 && otherSum > 0.0) {
        res.faultShortFctInflation =
            (inFlightSum / static_cast<double>(inFlightN)) /
            (otherSum / static_cast<double>(otherN));
      }
    }
  }
  return res;
}

std::uint64_t Assembly::executedEvents() const {
  return simr_.scheduler().executedEvents();
}

std::uint64_t Assembly::fastRetransmits() const {
  std::uint64_t n = 0;
  for (const auto* s : allSenders_) n += s->fastRetransmits();
  return n;
}

std::uint64_t Assembly::timeouts() const {
  std::uint64_t n = 0;
  for (const auto* s : allSenders_) n += s->timeouts();
  return n;
}

std::size_t Assembly::qmonSamples() const {
  return qmon_->shortDelayUs().count() + qmon_->longDelayUs().count();
}

std::size_t Assembly::flowStatePeak() const {
  std::size_t n = 0;
  for (int l = 0; l < topo_->numLeaves(); ++l) {
    if (auto* fs = topo_->leaf(l).selector()->flowState()) {
      n += fs->stats().peakFlows;
    }
  }
  return n;
}

std::uint64_t Assembly::flowStateRemovals() const {
  std::uint64_t n = 0;
  for (int l = 0; l < topo_->numLeaves(); ++l) {
    if (auto* fs = topo_->leaf(l).selector()->flowState()) {
      n += fs->stats().purgedIdle + fs->stats().evictedCapacity;
    }
  }
  return n;
}

}  // namespace perfbench
