#include "net/fabric.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tlbsim::net {

std::string linkLabel(const Node& from, const Link& link) {
  return from.name() + "->" + link.peer()->name();
}

void Fabric::reportLoss(const Packet& pkt) {
  if (pkt.src < 0 || pkt.src >= numHosts()) return;
  if (PacketHandler* handler = host(pkt.src).handlerFor(pkt.flow)) {
    handler->onLoss(pkt);
  }
}

void Fabric::reserve(int hosts, int switches) {
  hosts_.reserve(static_cast<std::size_t>(hosts));
  accessOf_.reserve(static_cast<std::size_t>(hosts));
  switches_.reserve(static_cast<std::size_t>(switches));
  tierOf_.reserve(static_cast<std::size_t>(switches));
}

Switch& Fabric::addSwitch(std::string name, int tier) {
  TLBSIM_ASSERT(tier >= 1, "switch %s at tier %d; tier 0 is the hosts",
                name.c_str(), tier);
  switches_.push_back(std::make_unique<Switch>(sim_, store_, std::move(name)));
  tierOf_.push_back(tier);
  Switch& sw = *switches_.back();
  if (tier == 1) {
    access_.push_back(&sw);
    hostsUnder_.push_back(HostRange{0, 0});
  }
  return sw;
}

Host& Fabric::addHost(int access, LinkRate rate, SimTime delay,
                      QueueConfig q) {
  const auto id = static_cast<HostId>(hosts_.size());
  HostRange& range = hostsUnder_[static_cast<std::size_t>(access)];
  if (range.count == 0) range.first = id;
  TLBSIM_ASSERT(range.first + range.count == id,
                "host %d breaks the id range of access switch %d", id,
                access);
  Switch& sw = *access_[static_cast<std::size_t>(access)];
  hosts_.push_back(std::make_unique<Host>(id, "h" + std::to_string(id)));
  Host& host = *hosts_.back();

  auto up = std::make_unique<Link>(sim_, store_, rate, delay, q);
  up->connect(&sw, /*peerPort=*/-1);
  host.attachUplink(std::move(up));

  auto down = std::make_unique<Link>(sim_, store_, rate, delay, q);
  down->connect(&host, /*peerPort=*/0);
  sw.setRoute(id, sw.addPort(std::move(down)));

  accessOf_.push_back(access);
  ++range.count;
  return host;
}

Fabric::CablePorts Fabric::connect(Switch& lower, Switch& upper,
                                   LinkRate rate, SimTime delay,
                                   QueueConfig q) {
  auto up = std::make_unique<Link>(sim_, store_, rate, delay, q);
  up->connect(&upper, /*peerPort=*/-1);
  const int upPort = lower.addPort(std::move(up));

  auto down = std::make_unique<Link>(sim_, store_, rate, delay, q);
  down->connect(&lower, /*peerPort=*/-1);
  return CablePorts{upPort, upper.addPort(std::move(down))};
}

void Fabric::setUplinks(Switch& sw, std::vector<int> ports) {
  sw.setUplinkGroup(std::move(ports));
  decision_.push_back(&sw);
}

void Fabric::installSelectors(const SelectorFactory& makeSelector) {
  if (!makeSelector) return;
  for (std::size_t i = 0; i < decision_.size(); ++i) {
    decision_[i]->setSelector(makeSelector(*decision_[i], static_cast<int>(i)));
  }
}

void Fabric::forEachLink(
    // setup-time iteration. tlbsim-lint: allow(std-function-hot-path)
    const std::function<void(const FabricLink&)>& fn) const {
  for (const auto& host : hosts_) {
    fn(FabricLink{&host->uplink(), host.get(), 0, 1});
  }
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    Switch& sw = *switches_[i];
    const int tier = tierOf_[i];
    const std::vector<int>& group = sw.uplinkGroup();
    for (int port = 0; port < sw.numPorts(); ++port) {
      const bool up =
          std::find(group.begin(), group.end(), port) != group.end();
      fn(FabricLink{&sw.port(port), &sw, tier, up ? tier + 1 : tier - 1});
    }
  }
}

void Fabric::forEachFabricLink(
    // setup-time iteration. tlbsim-lint: allow(std-function-hot-path)
    const std::function<void(Link&)>& fn) const {
  forEachLink([&fn](const FabricLink& l) {
    if (l.fromTier > 0 && l.toTier > 0) fn(*l.link);
  });
}

}  // namespace tlbsim::net
