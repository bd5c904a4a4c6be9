#include "net/switch.hpp"

#include "obs/flow_probe.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tlbsim::net {

void Switch::setRoute(HostId dstHost, int port) {
  TLBSIM_ASSERT(dstHost >= 0, "route for negative host id %d", dstHost);
  if (static_cast<std::size_t>(dstHost) >= routes_.size()) {
    routes_.resize(static_cast<std::size_t>(dstHost) + 1, kNoRoute);
  }
  routes_[static_cast<std::size_t>(dstHost)] = port;
}

void Switch::routeViaUplinks(HostId dstHost) { setRoute(dstHost, kViaUplinks); }

void Switch::addCountersTo(obs::MetricsRegistry& metrics) const {
  metrics.counter("switch." + name_ + ".forwarded").inc(forwarded_);
  metrics.counter("switch." + name_ + ".unroutable").inc(unroutable_);
}

void Switch::installFlowProbe(obs::FlowProbe& probe, int leafIndex) {
  flowProbe_ = &probe;
  probeLeafIndex_ = leafIndex;
  portToUplinkSlot_.assign(static_cast<std::size_t>(numPorts()), -1);
  for (std::size_t slot = 0; slot < uplinks_.size(); ++slot) {
    portToUplinkSlot_[static_cast<std::size_t>(uplinks_[slot])] =
        static_cast<int>(slot);
  }
}

void Switch::setSelector(std::unique_ptr<UplinkSelector> selector) {
  selector_ = std::move(selector);
  if (selector_) selector_->attach(*this, sim_);
}

void Switch::setUplinkGroup(std::vector<int> ports) {
  // Ports leaving the group stop keeping entries of the view.
  for (int p : uplinks_) port(p).bindView(nullptr, nullptr);
  uplinks_ = std::move(ports);
  viewStale_ = true;
}

PortView Switch::freshView(int p) const {
  // Rate and delay reflect active degradation faults.
  const Link& link = port(p);
  return PortView{p, link.queueBytes(),
                  link.effectiveRate().bitsPerSecond(),
                  toSeconds(link.effectiveDelay())};
}

void Switch::rebuildView() {
  // Downed ports are masked out: selectors never see them, so every
  // scheme stops choosing a dead uplink on its next selection.
  view_.clear();
  for (int p : uplinks_) {
    if (port(p).up()) view_.push_back(freshView(p));
  }
  // The entries are in place; point each up link at its own.
  std::size_t next = 0;
  for (int p : uplinks_) {
    Link& link = port(p);
    link.bindView(link.up() ? &view_[next++] : nullptr, &viewStale_);
  }
  viewStale_ = false;
}

void Switch::receive(PacketStore& store, PacketStore::Handle slot,
                     int inPort) {
  (void)inPort;
  TLBSIM_DCHECK(&store == &store_, "%s: packet from another store",
                name_.c_str());
  const Packet& pkt = store_[slot].pkt;
  int out = routeFor(pkt.dst);
  if (out == kViaUplinks) {
    TLBSIM_ASSERT(!uplinks_.empty(),
                  "%s routes via uplinks but has no uplink group",
                  name_.c_str());
    if (uplinks_.size() == 1) {
      out = uplinks_.front();
    } else {
      const UplinkView& view = uplinkView();
      if (view.empty()) {
        // Every uplink is down. Forward to the first one anyway: the dead
        // link rejects the packet as a fault drop, which keeps the
        // end-to-end conservation ledger closed.
        out = uplinks_.front();
      } else if (selector_ != nullptr) {
        out = selector_->selectUplink(pkt, view);
      } else {
        out = view.front().port;
      }
    }
  }
  if (out < 0 || out >= numPorts()) {
    ++unroutable_;
    TLBSIM_LOG_WARN("%s: no route for host %d (flow %llu)", name_.c_str(),
                    pkt.dst, static_cast<unsigned long long>(pkt.flow));
    store_.lost(pkt);
    store_.free(slot);
    return;
  }
  ++forwarded_;
  if (flowProbe_ != nullptr) {
    const int slot = portToUplinkSlot_[static_cast<std::size_t>(out)];
    if (slot >= 0) {
      flowProbe_->onUplinkForward(probeLeafIndex_, slot, pkt.flow, pkt.size,
                                  pkt.payload, sim_.now());
    }
  }
  // The slot moves on with the packet; the link may drop and free it.
  ports_[static_cast<std::size_t>(out)]->send(slot);
}

}  // namespace tlbsim::net
