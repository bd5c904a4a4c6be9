#include "fault/monitor.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "obs/flow_probe.hpp"

namespace tlbsim::fault {

FaultMonitor::FaultMonitor(net::LeafSpineTopology& topo,
                           sim::Simulator& simr,
                           std::function<bool(FlowId)> isLong, Config cfg)
    : topo_(topo),
      sim_(simr),
      isLong_(std::move(isLong)),
      cfg_(cfg),
      forgottenOn_(static_cast<std::size_t>(topo.numLeaves() *
                                            topo.numSpines())) {
  for (int l = 0; l < topo_.numLeaves(); ++l) {
    for (int s = 0; s < topo_.numSpines(); ++s) {
      topo_.leafUplink(l, s).addDequeueHook(
          [this, l, s](const net::Packet& pkt, SimTime) {
            onDequeue(l, s, pkt);
          });
    }
  }
  simr.every(
      cfg_.sampleInterval,
      [this] {
        // A sample at the fault's own time still counts as before it.
        if (!probe_ || postFaultSamples_ == kDipWindow) return;
        const SimTime now = sim_.now();
        if (firstDisruptiveAt_ >= 0_ns && now > firstDisruptiveAt_) {
          ++postFaultSamples_;
        } else if (samples_.size() > kDipWindow) {
          samples_.erase(samples_.begin());
        }
        samples_.emplace_back(now, probe_());
      },
      /*start=*/cfg_.sampleInterval, /*name=*/"fault.monitor_sample");
}

void FaultMonitor::onDequeue(int leaf, int spine, const net::Packet& pkt) {
  if (pkt.payload <= 0_B || !isLong_(pkt.flow)) return;
  if (const Pending* p = pending_.find(pkt.flow)) {
    if (leaf != p->leaf || spine != p->spine) {
      const double delaySec = toSeconds(sim_.now() - p->faultAt);
      rerouteTimes_.push_back(delaySec);
      if (flowProbe_ != nullptr) {
        flowProbe_->onDecision(pkt.flow, sim_.now(),
                               obs::DecisionKind::kFaultReroute,
                               static_cast<double>(spine), delaySec);
      }
      pending_.erase(pkt.flow);
    }
  }
  currentUplink_.assign(pkt.flow, {leaf, spine});
}

void FaultMonitor::onFault(const FaultEvent& ev) {
  if (!ev.disruptive()) return;
  const SimTime now = sim_.now();
  if (firstDisruptiveAt_ < 0_ns) firstDisruptiveAt_ = now;
  // Snapshot which long flows currently ride the faulted uplink; order of
  // iteration only feeds per-flow inserts and a count, so the result is
  // independent of the hash order.
  currentUplink_.forEach([&](FlowId flow, const std::pair<int, int>& link) {
    if (link.first != ev.leaf || link.second != ev.spine) return;
    if (pending_.find(flow) != nullptr) return;
    pending_.assign(flow, Pending{now, ev.leaf, ev.spine});
    ++affected_;
  });
  // Forgotten flows that last sent here: affected, and never to reroute.
  int& forgotten = forgottenOn_[static_cast<std::size_t>(
      ev.leaf * topo_.numSpines() + ev.spine)];
  affected_ += forgotten;
  forgotten = 0;
}

void FaultMonitor::forgetFlow(FlowId flow) {
  const std::pair<int, int>* link = currentUplink_.find(flow);
  if (link == nullptr) return;  // never seen as a long flow
  // A pending flow is already counted and stays pending for good: no
  // packet of it will leave any uplink again.
  if (!pending_.erase(flow)) {
    const auto [leaf, spine] = *link;
    ++forgottenOn_[static_cast<std::size_t>(leaf * topo_.numSpines() +
                                            spine)];
  }
  currentUplink_.erase(flow);
}

double FaultMonitor::meanRerouteSec() const {
  if (rerouteTimes_.empty()) return 0.0;
  double sum = 0.0;
  for (const double t : rerouteTimes_) sum += t;
  return sum / static_cast<double>(rerouteTimes_.size());
}

double FaultMonitor::maxRerouteSec() const {
  double mx = 0.0;
  for (const double t : rerouteTimes_) mx = std::max(mx, t);
  return mx;
}

double FaultMonitor::goodputDipRatio() const {
  if (firstDisruptiveAt_ < 0_ns || samples_.size() < 2) return 1.0;
  // Per-interval byte deltas on either side of the first disruptive
  // fault: mean of the last kDipWindow intervals before vs the minimum of
  // the first kDipWindow intervals after.
  std::vector<double> pre;
  double postMin = -1.0;
  int postCount = 0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const auto& [t, bytes] = samples_[i];
    const double delta =
        static_cast<double>((bytes - samples_[i - 1].second).bytes());
    if (t <= firstDisruptiveAt_) {
      pre.push_back(delta);
    } else if (postCount < kDipWindow) {
      postMin = postCount == 0 ? delta : std::min(postMin, delta);
      ++postCount;
    }
  }
  if (pre.empty() || postCount == 0) return 1.0;
  const std::size_t window =
      std::min(pre.size(), static_cast<std::size_t>(kDipWindow));
  double preSum = 0.0;
  for (std::size_t i = pre.size() - window; i < pre.size(); ++i) {
    preSum += pre[i];
  }
  if (preSum <= 0.0) return 1.0;
  const double preMean = preSum / static_cast<double>(window);
  return std::max(0.0, postMin / preMean);
}

}  // namespace tlbsim::fault
