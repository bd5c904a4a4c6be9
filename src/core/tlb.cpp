#include "core/tlb.hpp"

#include <algorithm>

#include "lb/selector_util.hpp"
#include "net/switch.hpp"
#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace tlbsim::core {

Tlb::Tlb(const TlbConfig& cfg, int numPaths, std::uint64_t seed)
    : cfg_(cfg),
      table_(cfg),
      calc_(cfg, numPaths),
      deadlines_(/*capacity=*/1024, splitmix64(seed ^ 0xdead11e5ULL)),
      effectiveDeadline_(cfg.deadline),
      rng_(seed) {}

void Tlb::attach(net::Switch& sw, sim::Simulator& simr) {
  UplinkSelector::attach(sw, simr);
  simr.every(cfg_.updateInterval, [this] { controlTick(); },
             /*start=*/cfg_.updateInterval, /*name=*/"tlb.control_tick");
}

void Tlb::installObs(obs::MetricsRegistry* metrics, obs::EventTrace* trace,
                     const std::string& label) {
  if (metrics != nullptr) {
    // One point per control tick: capped so a pathologically long run (or
    // a tiny updateInterval) cannot grow the series without bound.
    constexpr std::size_t kQthSeriesMaxPoints = 1u << 18;
    qthSeries_ =
        &metrics->series("tlb." + label + ".qth_bytes", kQthSeriesMaxPoints);
  }
  trace_ = trace;
  if (trace_ != nullptr) traceName_ = trace_->intern("tlb." + label);
}

void Tlb::addCountersTo(obs::MetricsRegistry& metrics,
                        const std::string& label) const {
  const std::string p = "tlb." + label + ".";
  metrics.counter(p + "short.spray").inc(shortSprays_);
  metrics.counter(p + "short.sticky_stay").inc(shortStickyStays_);
  metrics.counter(p + "long.stay").inc(longStays_);
  metrics.counter(p + "long.reroute").inc(longSwitches_);
  metrics.counter(p + "reclassified_long").inc(reclassified_);
  metrics.counter(p + "control_ticks").inc(controlTicks_);
}

void Tlb::controlTick() {
  const SimTime t = now();
  table_.purgeIdle(t);
  if (cfg_.autoDeadline) {
    effectiveDeadline_ =
        deadlines_.percentile(cfg_.deadlinePercentile, cfg_.deadline);
  }
  calc_.update(table_.shortCount(), table_.longCount(),
               table_.meanShortFlowSize(), effectiveDeadline_);
  ++controlTicks_;
  if (qthSeries_ != nullptr) {
    qthSeries_->add(t, static_cast<double>(calc_.qthBytes().bytes()));
  }
  if (trace_ != nullptr) {
    trace_->counter(
        "tlb", traceName_, t,
        {{"qth_bytes", static_cast<double>(calc_.qthBytes().bytes())},
         {"short_flows", static_cast<double>(table_.shortCount())},
         {"long_flows", static_cast<double>(table_.longCount())}});
  }
  if (Logger::enabled(LogLevel::kDebug)) {
    TLBSIM_LOG_DEBUG("tlb tick t=%.3fms q_th=%lld B short=%d long=%d",
                     toMilliseconds(t),
                     static_cast<long long>(calc_.qthBytes().bytes()),
                     table_.shortCount(), table_.longCount());
  }
  // Smooth the uplink waits (the long-flow escape signal) over a few
  // control intervals so the DCTCP sawtooth phase averages out.
  if (switch_ != nullptr) waits_.sample(switch_->uplinkView());
}

int Tlb::selectUplink(const net::Packet& pkt, const net::UplinkView& uplinks) {
  const SimTime t = now();

  // Flow accounting from SYN/FIN snooping (paper §5). SYN-ACK/FIN-ACK make
  // the reverse (ACK-only) direction of each flow visible at its own leaf.
  switch (pkt.type) {
    case net::PacketType::kSyn:
      deadlines_.observe(pkt.deadline);  // deadline statistics (paper §5)
      table_.onFlowStart(pkt.flow, t);
      break;
    case net::PacketType::kSynAck:
      table_.onFlowStart(pkt.flow, t);
      break;
    case net::PacketType::kFin:
    case net::PacketType::kFinAck: {
      // Route the FIN like a last short packet, then retire the flow.
      table_.onFlowEnd(pkt.flow);
      return shortest(uplinks);
    }
    default:
      break;
  }

  FlowEntry& entry = table_.touch(pkt.flow, t);
  if (pkt.payload > 0_B) {
    if (table_.recordPayload(entry, pkt.payload)) {
      ++reclassified_;
      if (flowProbe_ != nullptr) {
        // The current port's queue, or -1 when the flow has none in view.
        const net::PortView* cur = lb::findPort(uplinks, entry.port);
        flowProbe_->onDecision(
            pkt.flow, t, obs::DecisionKind::kReclassifyLong,
            static_cast<double>(calc_.qthBytes().bytes()),
            cur != nullptr ? static_cast<double>(cur->queueBytes.bytes())
                           : -1.0);
      }
    }
    entry.bytesSinceSwitch += pkt.payload;
  }

  if (!entry.isLong) {
    // Short flows (and pure-ACK reverse flows): per-packet shortest queue,
    // with one packet of stickiness — if the current port is within one
    // wire packet of the minimum, moving cannot shorten the wait but WILL
    // reorder the in-flight burst (dup-ACKs, spurious fast retransmits),
    // so stay. This is the "similar queueing delay between the shortest
    // queues" observation of Section 6.1 made explicit.
    if (cfg_.sprayStickiness > 0_B) {
      const net::PortView* cur = lb::findPort(uplinks, entry.port);
      const net::PortView& best =
          uplinks[lb::shortestQueueIndex(uplinks, rng_)];
      if (cur != nullptr &&
          cur->queueBytes <= best.queueBytes + cfg_.sprayStickiness) {
        ++shortStickyStays_;
        return entry.port;  // ablation mode: sticky spraying
      }
      entry.port = best.port;
      ++shortSprays_;
      return entry.port;
    }
    entry.port = shortest(uplinks);
    ++shortSprays_;
    return entry.port;
  }

  // Long flow: stick to the current uplink until the wait behind it
  // reaches the q_th-equivalent wait AND the flow has sent q_th of data
  // since its last move (the switching granularity — prevents thrashing
  // while a full queue drains). Waits, not bytes: on a degraded link the
  // same queue length blocks for proportionally longer (Figs. 16/17).
  const net::PortView* cur = lb::findPort(uplinks, entry.port);
  if (cur == nullptr) {
    // First long packet, or the current uplink left the usable view (it
    // went down, or the group changed): place on shortest queue.
    entry.port = shortest(uplinks);
    entry.bytesSinceSwitch = 0_B;
    return entry.port;
  }
  const ByteCount qth = calc_.qthBytes();
  const double qthWait = static_cast<double>(qth.bytes()) * 8.0 /
                         cfg_.linkCapacity.bitsPerSecond();
  // The wait includes one packet's serialization and the cable's
  // propagation delay, so an empty degraded link (slow or long) is still
  // a worse choice than an empty healthy one.
  const double curWait = lb::drainTime(*cur);
  // Granularity floor: a window-limited flow cannot benefit from moving
  // more than once per window — anything finer only reorders the same
  // in-flight data again before the previous move's effect is visible.
  const ByteCount granularity = std::max(qth, cfg_.longFlowWindow);
  if (curWait >= qthWait && entry.bytesSinceSwitch >= granularity) {
    // Moving reorders the in-flight window (one spurious fast retransmit,
    // ~half the cwnd), so only pay that to escape a genuinely less loaded
    // path. Two stabilizers:
    //  * waits smoothed over several control intervals — when every path
    //    hovers around the same ECN operating point, instantaneous
    //    sawtooth lows would look like (worthless) escape targets on
    //    every marking event;
    //  * the target is drawn uniformly among ALL qualifying ports — if
    //    every eligible flow jumped to the single least-loaded port they
    //    would re-collide there and flap in lockstep forever.
    const double curSmoothed = waits_.get(entry.port, curWait);
    const double wireTime = static_cast<double>(cfg_.packetWireSize.bytes()) *
                            8.0 / cfg_.linkCapacity.bitsPerSecond();
    int next = -1;
    int qualifying = 0;
    for (const auto& u : uplinks) {
      if (u.port == entry.port) continue;
      const double s = waits_.get(u.port, lb::drainTime(u));
      if (s + wireTime <= curSmoothed / 2.0) {
        ++qualifying;
        if (rng_.uniformInt(static_cast<std::uint64_t>(qualifying)) == 0) {
          next = u.port;
        }
      }
    }
    if (next >= 0) {
      const int prev = entry.port;
      entry.port = next;
      entry.bytesSinceSwitch = 0_B;
      ++longSwitches_;
      if (flowProbe_ != nullptr) {
        flowProbe_->onDecision(pkt.flow, t, obs::DecisionKind::kLongReroute,
                               static_cast<double>(prev),
                               static_cast<double>(next));
      }
      if (trace_ != nullptr) {
        trace_->instant("tlb", "long_reroute", t,
                        {{"flow", static_cast<double>(pkt.flow)},
                         {"to_port", static_cast<double>(next)}});
      }
      return entry.port;
    }
  }
  ++longStays_;
  return entry.port;
}

}  // namespace tlbsim::core
