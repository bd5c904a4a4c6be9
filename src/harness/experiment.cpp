#include "harness/experiment.hpp"

#include <memory>
#include <optional>
#include <string>

#include "app/service.hpp"
#include "check/invariant_audit.hpp"
#include "core/tlb.hpp"
#include "fault/injector.hpp"
#include "fault/monitor.hpp"
#include "lb/flow_state_table.hpp"
#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stats/queue_monitor.hpp"
#include "transport/endpoint_pool.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tlbsim::harness {

namespace {

/// Aggregated sender/receiver counters used for interval deltas.
struct Totals {
  std::uint64_t shortDup = 0, shortAcks = 0;
  std::uint64_t longOoo = 0, longData = 0;
  ByteCount longAcked;
  SimTime fabricBusy;
};

/// Resolves the audit mode: kAuto follows the build type, so every Debug
/// test run doubles as an invariant check at zero Release cost.
bool auditEnabled(ExperimentConfig::Audit mode) {
  switch (mode) {
    case ExperimentConfig::Audit::kOn:
      return true;
    case ExperimentConfig::Audit::kOff:
      return false;
    case ExperimentConfig::Audit::kAuto:
      break;
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace

ExperimentResult Experiment::run(const Sinks& sinks) const {
  const ExperimentConfig& cfg = cfg_;  // read in place: no flow-list copy
  ExperimentResult res;

  TLBSIM_ASSERT(!cfg.fatTree || cfg.fault.empty(),
                "fault plans name leaf-spine links; a fat-tree run takes "
                "none");

  sim::Simulator simr;

  // Derive TLB's physical model inputs from the topology: a decision
  // switch's uplink-group width and rate, the base RTT across the fabric,
  // and the buffer. DCTCP marking bounds the real queue length; a
  // threshold above the marking point would never trigger.
  struct Physical {
    int paths;
    LinkRate rate;
    SimTime rtt;
    int bufferPackets;
    int ecnPackets;
  };
  const Physical phys =
      cfg.fatTree ? Physical{cfg.fatTree->k / 2, cfg.fatTree->linkRate,
                             cfg.fatTree->baseRtt(), cfg.fatTree->bufferPackets,
                             cfg.fatTree->ecnThresholdPackets}
                  : Physical{cfg.topo.numSpines, cfg.topo.fabricLinkRate,
                             cfg.topo.baseRtt(), cfg.topo.bufferPackets,
                             cfg.topo.ecnThresholdPackets};
  SchemeConfig scheme = cfg.scheme;  // plus the derived inputs
  scheme.numPaths = phys.paths;
  scheme.tlb.rtt = phys.rtt;
  scheme.tlb.linkCapacity = phys.rate;
  scheme.tlb.bufferPackets = phys.bufferPackets;
  scheme.tlb.mss = cfg.tcp.mss;
  scheme.tlb.packetWireSize = cfg.tcp.maxSegmentWireSize();
  scheme.tlb.longFlowWindow = cfg.tcp.receiverWindow;
  scheme.tlb.qthCapPackets = phys.ecnPackets;

  // Topology with one selector per decision switch; remember TLB instances
  // for the q_th trace.
  std::vector<core::Tlb*> tlbs;
  const net::SelectorFactory selectors = [&](net::Switch&, int index) {
    auto sel = makeSelector(scheme, cfg.seed * 1315423911ULL +
                                        static_cast<std::uint64_t>(index));
    if (auto* tlb = dynamic_cast<core::Tlb*>(sel.get())) tlbs.push_back(tlb);
    return sel;
  };
  std::optional<net::LeafSpineTopology> leafSpine;
  std::optional<net::FatTreeTopology> fatTree;
  net::Fabric& topo =
      cfg.fatTree ? static_cast<net::Fabric&>(
                        fatTree.emplace(simr, *cfg.fatTree, selectors))
                  : leafSpine.emplace(simr, cfg.topo, selectors);
  const std::vector<net::Switch*>& access = topo.accessSwitches();
  TLBSIM_LOG_INFO(
      "experiment: scheme=%s hosts=%d switches=%zu flows=%zu seed=%llu",
      schemeName(scheme.scheme), topo.numHosts(), topo.switches().size(),
      cfg.flows.size(), static_cast<unsigned long long>(cfg.seed));

  // Flow classification for the stats hooks. They see only live flows'
  // packets (a pair is reused after its flow drained), whose specs are in
  // the static flows' endpoint pool or the app service's. App RPC flows
  // stay in the queue monitor's bounded long-flow histograms, so an app
  // run's memory does not grow with every query.
  transport::EndpointPool endpoints(simr, topo, cfg.tcp);
  std::unique_ptr<app::Service> service;
  stats::QueueDelayMonitor qmon([&endpoints, &cfg](FlowId id) {
    const transport::TcpSender* snd = endpoints.find(id);
    return snd != nullptr && snd->flow().size < cfg.shortThreshold;
  });
  // Observe the access switches' uplink queues (where the first LB
  // decision applies).
  for (net::Switch* sw : access) {
    for (int port : sw->uplinkGroup()) qmon.installOn(sw->port(port));
  }

  // Observability wiring: trace tracks and the q_th series; counts and
  // queue depths are read at run end. Each step is skipped (no hooks) when
  // its sink is null.
  if (sinks.trace != nullptr) simr.installTrace(*sinks.trace);
  if (sinks.metrics != nullptr && sinks.trace != nullptr) {
    for (net::Switch* sw : access) {
      for (int port : sw->uplinkGroup()) {
        net::Link& link = sw->port(port);
        link.installTrace(*sinks.trace, net::linkLabel(*sw, link));
      }
    }
  }
  // Every decision switch runs the same scheme and the factory ran in
  // decision-switch order, so tlbs[i] is decisionSwitches()[i]'s.
  for (std::size_t i = 0; i < tlbs.size(); ++i) {
    tlbs[i]->installObs(sinks.metrics, sinks.trace,
                        topo.decisionSwitches()[i]->name());
  }
  if (sinks.flows != nullptr) {
    // Every workload flow is declared up front so each probe hook is a
    // guaranteed record hit; access switches report uplink forwards and
    // their selectors report decisions. Only the first tier reports: the
    // probe keeps one path per flow.
    for (const auto& f : cfg.flows) {
      sinks.flows->declareFlow(f.id, f.src, f.dst, f.size, f.start,
                               f.size < cfg.shortThreshold);
    }
    for (std::size_t a = 0; a < access.size(); ++a) {
      access[a]->installFlowProbe(*sinks.flows, static_cast<int>(a));
      if (access[a]->selector() != nullptr) {
        access[a]->selector()->setFlowProbe(sinks.flows);
      }
    }
  }

  // Fault injection: a non-empty plan arms the injector (which mutates
  // links at the scheduled times) and a monitor measuring each scheme's
  // recovery. Both must outlive the run loop below.
  std::unique_ptr<fault::FaultMonitor> faultMon;
  std::unique_ptr<fault::FaultInjector> faultInj;
  if (!cfg.fault.empty()) {
    fault::FaultMonitor::Config mcfg;
    mcfg.sampleInterval = cfg.obsSampleInterval;
    // A flow is long unless its spec is short, static and app flows alike.
    faultMon = std::make_unique<fault::FaultMonitor>(
        *leafSpine, simr,
        [&endpoints, &service, &cfg](FlowId id) {
          const transport::TcpSender* snd = endpoints.find(id);
          const transport::FlowSpec* spec =
              snd != nullptr       ? &snd->flow()
              : service != nullptr ? service->rpcFlow(id)
                                   : nullptr;
          return spec == nullptr || spec->size >= cfg.shortThreshold;
        },
        mcfg);
    faultInj = std::make_unique<fault::FaultInjector>(cfg.fault, *leafSpine,
                                                      simr, cfg.seed);
    faultInj->setMonitor(faultMon.get());
    if (sinks.flows != nullptr) faultMon->setFlowProbe(sinks.flows);
    if (sinks.trace != nullptr) faultInj->installTrace(*sinks.trace);
    faultInj->install();
  }

  // Invariant audit: watch every link, switch, TLB instance, and flow,
  // then re-verify the conservation laws each control tick.
  std::unique_ptr<check::InvariantAuditor> auditor;
  if (auditEnabled(cfg.audit)) {
    auditor = std::make_unique<check::InvariantAuditor>();
    auditor->watchTopology(topo);
    // Admissible q_th range: [0, buffer depth], tightened by the ECN cap,
    // widened by an explicit override (the Fig. 7 harness pins q_th).
    ByteCount qthCap = scheme.tlb.bufferBytes();
    if (scheme.tlb.qthCapPackets > 0) {
      qthCap = std::min(qthCap, scheme.tlb.packetWireSize *
                                    scheme.tlb.qthCapPackets);
    }
    qthCap = std::max(qthCap, scheme.tlb.qthOverrideBytes);
    for (const auto* tlb : tlbs) auditor->watchTlb(*tlb, qthCap);
    auditor->install(simr);
  }

  // The endpoint pool builds each flow's pair in the flow's start event
  // and reuses a finished pair once its flow has drained. There is one
  // start event per flow, posted here in flow order at the time
  // TcpSender::start() would post the SYN, so every event keeps its seq.
  // Per-flow results go into the ledger at the flow's index when its pair
  // is reused or at run end; the per-flow totals the samplers read are the
  // pool's pairs plus the retired flows'.
  for (const auto& f : cfg.flows) {
    stats::FlowResult r;
    r.spec = f;
    r.spec.start = std::max(f.start, simr.now());
    res.ledger.add(std::move(r));
  }
  std::vector<bool> harvested(cfg.flows.size());
  const auto harvest = [&](const transport::TcpSender& snd,
                           const transport::TcpReceiver& rcv,
                           std::uint64_t i) {
    stats::FlowResult& r = res.ledger.at(i);
    r.spec = snd.flow();
    r.completed = snd.completed();
    r.fct = r.completed ? snd.fct() : 0_ns;
    r.dupAcks = snd.dupAcksReceived();
    r.acks = snd.acksReceived();
    r.fastRetransmits = snd.fastRetransmits();
    r.timeouts = snd.timeouts();
    r.outOfOrderPackets = rcv.outOfOrderPackets();
    r.dataPackets = rcv.dataPacketsReceived();
    if (sinks.flows != nullptr) {
      sinks.flows->finishFlow(r.spec.id, r.completed, r.fct,
                              snd.missedDeadline(), snd.bytesAcked(),
                              snd.dataPacketsSent(), snd.fastRetransmits(),
                              snd.timeouts());
    }
    if (sinks.metrics != nullptr) snd.addCountersTo(*sinks.metrics);
    harvested[i] = true;
  };
  const auto addTotals = [&cfg](Totals& t, const transport::TcpSender& snd,
                                const transport::TcpReceiver& rcv) {
    if (snd.flow().size < cfg.shortThreshold) {
      t.shortDup += snd.dupAcksReceived();
      t.shortAcks += snd.acksReceived();
    } else {
      t.longOoo += rcv.outOfOrderPackets();
      t.longData += rcv.dataPacketsReceived();
      t.longAcked += snd.bytesAcked();
    }
  };
  Totals retired;
  // Totals over every static flow: the retired ones plus the pool's.
  const auto flowTotals = [&] {
    Totals t = retired;
    endpoints.forEach([&](const transport::TcpSender& snd,
                          const transport::TcpReceiver& rcv,
                          std::uint64_t) { addTotals(t, snd, rcv); });
    return t;
  };
  // A reused pair's flow leaves the auditor and the fault monitor too
  // (static and app flows alike).
  const auto forgetFlow = [&](const transport::TcpSender& snd) {
    if (auditor != nullptr) auditor->unwatchFlow(snd);
    if (faultMon != nullptr) faultMon->forgetFlow(snd.flow().id);
  };
  endpoints.setLaunchHook([&](transport::TcpSender& snd,
                              transport::TcpReceiver& rcv, std::uint64_t) {
    if (sinks.trace != nullptr) snd.installTrace(*sinks.trace);
    if (sinks.flows != nullptr) {
      snd.setFlowProbe(sinks.flows);
      rcv.setFlowProbe(sinks.flows);
    }
    if (auditor != nullptr) auditor->watchFlow(snd, rcv, cfg.tcp.mss);
  });
  endpoints.setRetireHook([&](transport::TcpSender& snd,
                              transport::TcpReceiver& rcv, std::uint64_t i) {
    harvest(snd, rcv, i);
    addTotals(retired, snd, rcv);
    forgetFlow(snd);
  });
  std::size_t completed = 0;
  const auto launch = [&](std::size_t i) {
    transport::FlowSpec spec = cfg.flows[i];
    spec.start = simr.now();
    endpoints.launch(spec, i, [&completed] { ++completed; });
  };
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    simr.postAt(std::max(cfg.flows[i].start, simr.now()),
                [&launch, i] { launch(i); });
  }

  // Application layer: a partition-aggregate service generating RPC flows
  // dynamically at simulation time, on top of (or instead of) the static
  // flow list. Flow ids start past every static id so the two workloads
  // can share a run without colliding.
  if (cfg.app.enabled()) {
    FlowId firstAppFlowId = 1;
    for (const auto& f : cfg.flows) {
      firstAppFlowId = std::max(firstAppFlowId, f.id + 1);
    }
    service = std::make_unique<app::Service>(simr, topo, cfg.app, cfg.tcp,
                                             cfg.seed, firstAppFlowId);
    service->setQueryProbe(sinks.queries);
    service->installObs(sinks.metrics, sinks.trace);
    if (auditor != nullptr) {
      auditor->watchService(*service);
      service->setEndpointHook(
          [&cfg, a = auditor.get()](const transport::TcpSender& snd,
                                    const transport::TcpReceiver& rcv) {
            a->watchFlow(snd, rcv, cfg.tcp.mss);
          });
    }
    if (auditor != nullptr || faultMon != nullptr) {
      service->setRetireHook(
          [&forgetFlow](const transport::TcpSender& snd,
                        const transport::TcpReceiver&) { forgetFlow(snd); });
    }
    service->start();
  }

  std::size_t numLong = 0;
  for (const auto& f : cfg.flows) numLong += f.size >= cfg.shortThreshold;

  if (faultMon != nullptr) {
    // Goodput = acked bytes summed over the long-flow senders, retired
    // ones included (integer bytes: the sum is exact in any order).
    faultMon->setGoodputProbe(
        [&flowTotals] { return flowTotals().longAcked; });
  }

  // Periodic sampling for the time-series figures.
  Totals prev;
  if (cfg.sampleInterval > 0_ns) {
    simr.every(cfg.sampleInterval, [&] {
      Totals now = flowTotals();
      const SimTime t = simr.now();
      const double dt = toSeconds(cfg.sampleInterval);

      const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                       : 0.0;
      };
      res.shortDupAckRatio.add(
          t, ratio(now.shortDup - prev.shortDup,
                   now.shortAcks - prev.shortAcks));
      res.longOooRatio.add(t, ratio(now.longOoo - prev.longOoo,
                                    now.longData - prev.longData));
      if (numLong > 0) {
        res.longThroughputGbps.add(
            t, static_cast<double>((now.longAcked - prev.longAcked).bytes()) *
                   8.0 / dt / 1e9 / static_cast<double>(numLong));
      }
      qmon.rollInterval(t);

      // Fabric utilization: interval delta of the busiest access switch's
      // uplink busy time, normalized by the group width (Fig. 4(a) proxy).
      SimTime busyNow;
      for (const net::Switch* sw : access) {
        SimTime busy;
        for (int port : sw->uplinkGroup()) busy += sw->port(port).busyTime();
        busyNow = std::max(busyNow, busy);
      }
      res.fabricUtilization.add(
          t, toSeconds(busyNow - prev.fabricBusy) / dt /
                 static_cast<double>(access.front()->uplinkGroup().size()));
      now.fabricBusy = busyNow;
      prev = now;
    }, /*start=*/cfg.sampleInterval);
  }

  // Run until every flow completes, every query completes, or the hard
  // stop. A query whose retries are exhausted against a dead path never
  // completes; maxDuration is the backstop that terminates such runs.
  auto& sched = simr.scheduler();
  while ((completed < cfg.flows.size() ||
          (service != nullptr && !service->done())) &&
         !sched.empty()) {
    if (!sched.step(cfg.maxDuration)) break;
  }
  res.endTime = simr.now();
  res.executedEvents = simr.scheduler().executedEvents();
  if (service != nullptr) {
    // Book still-open queries as incomplete before the final audit sweep
    // and the harvest below.
    service->finalize(simr.now());
    res.appQueriesLaunched = service->queriesLaunched();
    res.appQueriesCompleted = service->queriesCompleted();
    res.appSloMisses = service->sloMisses();
    res.appRetries = service->retriesIssued();
    res.appDuplicates = service->duplicatesIssued();
    res.appRpcFlows = service->flowsCreated();
    res.appQctSeconds = service->qctSeconds();
  }
  if (auditor != nullptr) {
    // One final sweep so short runs (under one audit interval) are still
    // checked at least once.
    auditor->auditNow(simr.now());
    res.auditTicks = auditor->ticks();
    res.auditChecks = auditor->checksRun();
    res.auditViolations = auditor->violationCount();
  }
  TLBSIM_LOG_INFO("experiment: done t=%.1fms completed=%zu/%zu events=%llu",
                  toMilliseconds(res.endTime), completed, cfg.flows.size(),
                  static_cast<unsigned long long>(
                      simr.scheduler().executedEvents()));

  // Harvest the per-flow results not taken at a reuse. A flow that never
  // started keeps its record as filled in at set-up.
  endpoints.forEach(harvest);
  if (sinks.flows != nullptr) {
    for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
      if (harvested[i]) continue;
      const stats::FlowResult& r = res.ledger.flows()[i];
      sinks.flows->finishFlow(r.spec.id, false, 0_ns, r.missedDeadline(),
                              0_B, 0, 0, 0);
    }
  }

  // Queue distributions (the short-flow samples moved, not copied: every
  // other structure of the run is still allocated here) + aggregate link
  // counters.
  res.shortQueueLenPkts = qmon.takeShortQueueLenPkts();
  res.shortDelayUsAll = qmon.takeShortDelayUs();
  res.longQueueLenPkts = qmon.longQueueLenPkts();
  res.shortQueueDelayUs = qmon.takeShortDelaySeries();

  for (const auto* tlb : tlbs) res.tlbLongSwitches += tlb->longFlowSwitches();

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

  if (faultInj != nullptr) {
    res.faultEventsApplied = faultInj->eventsApplied();
    res.firstFaultAt = faultMon->firstDisruptiveAt();
    res.faultAffectedLongFlows = faultMon->affectedLongFlows();
    res.faultReroutedLongFlows = faultMon->reroutedLongFlows();
    res.faultMeanRerouteSec = faultMon->meanRerouteSec();
    res.faultMaxRerouteSec = faultMon->maxRerouteSec();
    res.faultGoodputDipRatio = faultMon->goodputDipRatio();
    // FCT inflation: completed short flows in flight when the first
    // disruptive fault hit vs the rest of the completed short population.
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

  // Every component's counts, read once (the static flows' senders were
  // read at harvest). The export sorts by name, so no byte moves.
  if (sinks.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *sinks.metrics;
    simr.addCountersTo(metrics);
    for (net::Switch* sw : access) {
      for (int port : sw->uplinkGroup()) {
        const net::Link& link = sw->port(port);
        const std::string label = net::linkLabel(*sw, link);
        link.addCountersTo(metrics, label);
        metrics.gauge("port." + label + ".queue_pkts")
            .set(static_cast<double>(link.queuePackets()));
      }
    }
    for (const auto& sw : topo.switches()) sw->addCountersTo(metrics);
    for (net::Switch* sw : topo.decisionSwitches()) {
      if (sw->selector() == nullptr) continue;
      if (const lb::FlowStateTableBase* fs = sw->selector()->flowState()) {
        fs->addCountersTo(metrics, sw->name());
      }
    }
    for (std::size_t i = 0; i < tlbs.size(); ++i) {
      tlbs[i]->addCountersTo(metrics, topo.decisionSwitches()[i]->name());
    }
    if (faultInj != nullptr) faultInj->addCountersTo(metrics);
    if (service != nullptr) {  // its retired senders were read at reuse
      service->endpoints().forEach(
          [&metrics](const transport::TcpSender& snd,
                     const transport::TcpReceiver&,
                     std::uint64_t) { snd.addCountersTo(metrics); });
    }
    metrics.gauge("sim.executed_events")
        .set(static_cast<double>(simr.scheduler().executedEvents()));
    metrics.gauge("sim.end_time_s").set(toSeconds(res.endTime));
    metrics.gauge("run.completed_flows")
        .set(static_cast<double>(
            res.ledger.completedCount([](const auto&) { return true; })));
  }
  return res;
}

ExperimentResult runExperiment(const ExperimentConfig& cfg,
                               const Sinks& sinks) {
  return Experiment(cfg).run(sinks);
}

obs::RunSummary summarizeExperiment(const ExperimentConfig& cfg,
                                    const ExperimentResult& res) {
  obs::RunSummary s;
  s.setMeta("scheme", schemeName(cfg.scheme.scheme));
  s.set("seed", static_cast<double>(cfg.seed));
  s.set("flows", static_cast<double>(res.ledger.size()));
  s.set("completed_flows",
        static_cast<double>(
            res.ledger.completedCount([](const auto&) { return true; })));
  s.set("sim_end_time_s", toSeconds(res.endTime));
  s.set("short_afct_ms", res.shortAfctSec() * 1e3);
  s.set("short_p99_ms", res.shortP99Sec() * 1e3);
  s.set("deadline_miss_ratio", res.shortMissRatio());
  s.set("long_goodput_gbps", res.longGoodputGbps());
  s.set("short_dupack_ratio", res.shortDupAckRatioTotal());
  s.set("long_ooo_ratio", res.longOooRatioTotal());
  s.set("fabric_drops", static_cast<double>(res.totalDrops));
  s.set("ecn_marks", static_cast<double>(res.totalEcnMarks));
  s.set("mean_fabric_utilization", res.meanFabricUtilization);
  s.set("tlb_long_switches", static_cast<double>(res.tlbLongSwitches));
  // App keys are conditional so app-free runs keep the exact summary
  // shape (and JSON bytes) they had before the app layer existed.
  if (cfg.app.enabled()) {
    s.set("app.queries", static_cast<double>(res.appQueriesLaunched));
    s.set("app.completed_queries",
          static_cast<double>(res.appQueriesCompleted));
    s.set("app.qct_mean_ms", res.appQctMeanSec() * 1e3);
    s.set("app.qct_p50_ms", res.appQctP50Sec() * 1e3);
    s.set("app.qct_p99_ms", res.appQctP99Sec() * 1e3);
    s.set("app.slo_miss_ratio", res.appSloMissRatio());
    s.set("app.retries", static_cast<double>(res.appRetries));
    s.set("app.duplicate_requests", static_cast<double>(res.appDuplicates));
    s.set("app.rpc_flows", static_cast<double>(res.appRpcFlows));
  }
  // Fault keys are conditional so fault-free runs keep the exact summary
  // shape (and JSON bytes) they had before the fault subsystem existed.
  if (!cfg.fault.empty()) {
    s.set("fault.events", static_cast<double>(res.faultEventsApplied));
    s.set("fault.drops", static_cast<double>(res.faultDrops));
    s.set("fault.first_at_ms",
          res.firstFaultAt >= 0_ns ? toMilliseconds(res.firstFaultAt) : -1.0);
    s.set("fault.affected_long_flows",
          static_cast<double>(res.faultAffectedLongFlows));
    s.set("fault.rerouted_long_flows",
          static_cast<double>(res.faultReroutedLongFlows));
    s.set("fault.time_to_reroute_ms", res.faultMeanRerouteSec * 1e3);
    s.set("fault.time_to_reroute_max_ms", res.faultMaxRerouteSec * 1e3);
    s.set("fault.goodput_dip_ratio", res.faultGoodputDipRatio);
    s.set("fault.short_fct_inflation", res.faultShortFctInflation);
  }
  return s;
}

}  // namespace tlbsim::harness
