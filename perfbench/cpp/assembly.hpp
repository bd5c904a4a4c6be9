// Experiment::run rebuilt from the simulator's public pieces, so that a
// run can be split into phases (set-up, event loop, harvest, teardown)
// and, optionally, traced layer by layer from outside the program.
//
// Every call that schedules an event happens in the same order as in
// harness::Experiment::run, so the assembled run simulates the same
// program: its summary digest must equal the untraced Experiment's. The
// tracing decorators never schedule events.
//
// Tracing (LayerTrace non-null) wraps, without touching src/:
//   lb         a forwarding UplinkSelector around every leaf selector;
//   transport  a PacketHandler rebound via Host::bind over every endpoint,
//              app endpoints included (Service::setEndpointHook);
//   sim        Scheduler::step in the run loop, pendingEvents() per step,
//              and Scheduler::setPeriodicTickHook;
//   net        Link dequeue, drop, mark and fault-drop hooks.
// Spans are timed 1-in-kSampleEvery with steady_clock and aggregated in
// memory; nothing is written until the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "app/service.hpp"
#include "core/tlb.hpp"
#include "fault/injector.hpp"
#include "fault/monitor.hpp"
#include "harness/experiment.hpp"
#include "net/host.hpp"
#include "net/leaf_spine.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "stats/queue_monitor.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sampled span totals of one layer boundary.
struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  double sampledNs = 0.0;
  /// Calls until the next timed one. Gaps are drawn at random (fixed
  /// seed, mean ~kSampleEvery) so sampling cannot lock onto the periodic
  /// event pattern of a packet's hops.
  std::uint64_t countdown = 1;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

  double meanNs() const {
    return samples > 0 ? sampledNs / static_cast<double>(samples) : 0.0;
  }
  /// Estimated time in the span over all calls, seconds.
  double totalSec() const {
    return meanNs() * static_cast<double>(calls) * 1e-9;
  }
};

/// Per-layer accounting filled by the decorators during one run.
class LayerTrace {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;  // power of two
  /// Scheduler steps are timed in bursts of this many consecutive steps,
  /// which spreads the clock reads' intrusion over the burst.
  static constexpr int kStepBurst = 16;

  LayerTrace();

  /// Counts a call; true when this call's span is to be timed.
  static bool count(SpanStats& s) {
    ++s.calls;
    if (--s.countdown != 0) return false;
    s.rng ^= s.rng << 13;  // xorshift64
    s.rng ^= s.rng >> 7;
    s.rng ^= s.rng << 17;
    s.countdown = 1 + (s.rng & (2 * kSampleEvery - 1));
    return true;
  }
  /// Records `n` consecutive calls timed as one span from `t0`, net of
  /// the clock's own read cost; returns the span in ns.
  double record(SpanStats& s, Clock::time_point t0, std::uint64_t n = 1) const {
    const double ns = std::max(
        0.0,
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() -
            clockNs_);
    s.samples += n;
    s.sampledNs += ns;
    return ns;
  }

  SpanStats step;      ///< Scheduler::step (the whole event, children too)
  SpanStats decide;    ///< UplinkSelector::selectUplink
  SpanStats onPacket;  ///< PacketHandler::onPacket (TCP endpoints)
  double attachSec = 0.0;  ///< UplinkSelector::attach, every call timed
  tlbsim::obs::Histogram decideNs;  ///< sampled selectUplink durations

  std::uint64_t heapDepthSum = 0;
  std::size_t heapDepthPeak = 0;
  std::uint64_t periodicTicks = 0;

  std::uint64_t fabricDrops = 0;
  std::uint64_t ecnMarks = 0;
  std::uint64_t faultDrops = 0;
  tlbsim::obs::Histogram uplinkWaitUs;  ///< simulated queueing at leaf uplinks

 private:
  double clockNs_ = 0.0;
};

/// Forwards a host's packets to a TCP endpoint, timing the call.
class TracedEndpoint final : public tlbsim::net::PacketHandler {
 public:
  TracedEndpoint(tlbsim::net::PacketHandler& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  void onPacket(const tlbsim::net::Packet& pkt) override {
    if (!LayerTrace::count(trace_.onPacket)) {
      inner_.onPacket(pkt);
      return;
    }
    const auto t0 = Clock::now();
    inner_.onPacket(pkt);
    trace_.record(trace_.onPacket, t0);
  }

 private:
  tlbsim::net::PacketHandler& inner_;
  LayerTrace& trace_;
};

class Assembly {
 public:
  /// `trace` may be null: the pieces are then wired exactly as
  /// Experiment::run wires them, with no decorators.
  Assembly(const tlbsim::harness::ExperimentConfig& cfg, LayerTrace* trace);
  ~Assembly();

  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  /// Everything before the first simulated event. Returns the seconds
  /// spent building the topology (with selectors and the queue monitor).
  double build();
  /// The event loop, until every operation completes or maxDuration.
  void run();
  /// Collects the ExperimentResult exactly as Experiment::run does.
  tlbsim::harness::ExperimentResult harvest();

  std::uint64_t executedEvents() const;
  /// Live TCP endpoints (senders plus receivers), app endpoints included.
  std::size_t endpoints() const { return 2 * allSenders_.size(); }
  std::uint64_t fastRetransmits() const;
  std::uint64_t timeouts() const;
  /// Data packets the queue monitor recorded.
  std::size_t qmonSamples() const;
  /// Summed over leaves: peak tracked flows, and entries removed by
  /// idle purge or capacity eviction.
  std::size_t flowStatePeak() const;
  std::uint64_t flowStateRemovals() const;

 private:
  void addEndpoint(const tlbsim::transport::TcpSender& snd,
                   const tlbsim::transport::TcpReceiver& rcv);

  // Declared in Experiment::run's construction order, so teardown runs in
  // the same (reverse) order.
  tlbsim::harness::ExperimentConfig cfg_;
  LayerTrace* trace_;
  tlbsim::sim::Simulator simr_;
  std::vector<tlbsim::core::Tlb*> tlbs_;
  std::unique_ptr<tlbsim::net::LeafSpineTopology> topo_;
  std::unordered_set<tlbsim::FlowId> shortFlows_;
  std::unique_ptr<tlbsim::stats::QueueDelayMonitor> qmon_;
  std::unique_ptr<tlbsim::fault::FaultMonitor> faultMon_;
  std::unique_ptr<tlbsim::fault::FaultInjector> faultInj_;
  std::vector<std::unique_ptr<tlbsim::transport::TcpReceiver>> receivers_;
  std::vector<std::unique_ptr<tlbsim::transport::TcpSender>> senders_;
  std::size_t completed_ = 0;
  std::unique_ptr<tlbsim::app::Service> service_;

  /// Every sender of the run (static and app), for transport counters.
  std::vector<const tlbsim::transport::TcpSender*> allSenders_;
  /// Endpoint decorators; hosts hold pointers into this (stable) deque.
  std::deque<TracedEndpoint> tracedEndpoints_;
};

}  // namespace perfbench
