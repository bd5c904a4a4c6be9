#include "check/invariant_audit.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "app/service.hpp"
#include "core/tlb.hpp"
#include "net/fabric.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/packet_store.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"
#include "util/check.hpp"
#include "util/flow_index.hpp"

namespace tlbsim::check {

InvariantAuditor::InvariantAuditor() = default;

InvariantAuditor::InvariantAuditor(Config cfg) : cfg_(cfg) {}

void InvariantAuditor::watchLink(const net::Link& link, std::string label) {
  links_.push_back(WatchedLink{&link, std::move(label)});
}

void InvariantAuditor::watchSwitch(const net::Switch& sw) {
  switches_.push_back(&sw);
}

void InvariantAuditor::watchTlb(const core::Tlb& tlb, ByteCount qthCapBytes) {
  tlbs_.push_back(WatchedTlb{&tlb, qthCapBytes});
}

void InvariantAuditor::watchFlow(const transport::TcpSender& sender,
                                 const transport::TcpReceiver& receiver,
                                 ByteCount mss) {
  flows_.push_back(WatchedFlow{&sender, &receiver, mss});
  flowsWatched_ = true;
}

void InvariantAuditor::unwatchFlow(const transport::TcpSender& sender) {
  const auto it = std::find_if(
      flows_.begin(), flows_.end(),
      [&sender](const WatchedFlow& w) { return w.sender == &sender; });
  if (it == flows_.end()) return;
  retiredDataSent_ += sender.dataPacketsSent();
  retiredDataReceived_ += it->receiver->dataPacketsReceived();
  flows_.erase(it);
}

void InvariantAuditor::watchTopology(const net::Fabric& fabric) {
  for (int h = 0; h < fabric.numHosts(); ++h) hosts_.push_back(&fabric.host(h));
  fabric.forEachLink(
      [this](const net::FabricLink& l) { watchLink(*l.link, l.label()); });
  for (const auto& sw : fabric.switches()) watchSwitch(*sw);
  store_ = &fabric.packetStore();
  // Every link a packet can traverse is now watched, which closes the
  // end-to-end conservation sum and the store's slot count.
  topologyComplete_ = true;
}

void InvariantAuditor::watchService(const app::Service& service) {
  services_.push_back(&service);
}

void InvariantAuditor::install(sim::Simulator& simr) {
  sim_ = &simr;
  simr.every(
      cfg_.interval,
      [this] {
        ++ticks_;
        auditNow(sim_->now());
      },
      /*start=*/cfg_.interval, /*name=*/"check.audit");
}

void InvariantAuditor::report(SimTime now, const char* fmt, ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  ++violationCount_;
  if (violations_.size() < cfg_.maxRecorded) {
    violations_.push_back(AuditViolation{now, buf});
  }
  if (cfg_.assertOnViolation) {
    fail(__FILE__, __LINE__, "invariant audit", "t=%lldns %s",
         static_cast<long long>(now.ns()), buf);
  }
}

void InvariantAuditor::auditNow(SimTime now) {
  // Event-time monotonicity: the scheduler must never hand us a tick from
  // the past.
  ++checksRun_;
  if (now < lastAuditTime_) {
    report(now, "time regressed: audit at %lld after one at %lld",
           static_cast<long long>(now.ns()),
           static_cast<long long>(lastAuditTime_.ns()));
  }
  lastAuditTime_ = now;

  auditLinks(now);
  auditSwitches(now);
  auditTlbs(now);
  auditFlows(now);
  auditHosts(now);
  auditConservation(now);
  auditServices(now);
}

void InvariantAuditor::auditLinks(SimTime now) {
  for (const auto& w : links_) {
    const net::Link& link = *w.link;
    ++checksRun_;

    // Byte accounting: the incremental depth counter must equal a
    // from-scratch sum over the stored packets.
    const ByteCount recomputed = link.queue().recomputeBytes();
    if (link.queueBytes() != recomputed) {
      report(now, "port %s: queue byte counter %lld != recomputed %lld",
             w.label.c_str(), static_cast<long long>(link.queueBytes().bytes()),
             static_cast<long long>(recomputed.bytes()));
    }
    if (link.queueBytes() < 0_B) {
      report(now, "port %s: negative queue depth %lld bytes",
             w.label.c_str(), static_cast<long long>(link.queueBytes().bytes()));
    }
    if (link.queuePackets() > link.queue().config().capacityPackets) {
      report(now, "port %s: %d packets queued above capacity %d",
             w.label.c_str(), link.queuePackets(),
             link.queue().config().capacityPackets);
    }

    // Packet conservation within the link: everything accepted is either
    // transmitted, waiting, being serialized (at most one packet), or was
    // flushed out of the queue by a link-down fault.
    const std::uint64_t accounted =
        link.txPackets() + static_cast<std::uint64_t>(link.queuePackets()) +
        (link.transmitting() ? 1 : 0) + link.faultFlushedPackets();
    if (link.enqueuedPackets() != accounted) {
      report(now,
             "port %s: conservation broken: enqueued %llu != tx %llu + "
             "queued %d + serializing %d + fault-flushed %llu",
             w.label.c_str(),
             static_cast<unsigned long long>(link.enqueuedPackets()),
             static_cast<unsigned long long>(link.txPackets()),
             link.queuePackets(), link.transmitting() ? 1 : 0,
             static_cast<unsigned long long>(link.faultFlushedPackets()));
    }
    // Each transmitted packet is delivered or died on the wire to a fault.
    if (link.deliveredPackets() + link.faultWireDrops() > link.txPackets()) {
      report(now,
             "port %s: delivered %llu + wire-dropped %llu packets but only "
             "%llu left the transmitter",
             w.label.c_str(),
             static_cast<unsigned long long>(link.deliveredPackets()),
             static_cast<unsigned long long>(link.faultWireDrops()),
             static_cast<unsigned long long>(link.txPackets()));
    }
  }
}

void InvariantAuditor::auditSwitches(SimTime now) {
  for (const net::Switch* sw : switches_) {
    ++checksRun_;
    bool groupValid = true;
    for (int port : sw->uplinkGroup()) {
      if (port < 0 || port >= sw->numPorts()) {
        report(now, "switch %s: uplink group references invalid port %d",
               sw->name().c_str(), port);
        groupValid = false;
      }
    }
    if (groupValid) auditUplinkView(now, *sw);
  }
}

void InvariantAuditor::auditUplinkView(SimTime now, const net::Switch& sw) {
  // Read as kept: a stale view is rebuilt before it is next read, so only
  // each kept entry's queue bytes must hold then. A current view holds
  // exactly the up uplinks, in group order, each the entry its link
  // keeps and equal to one built from scratch.
  const net::UplinkView& view = sw.keptView();
  const bool current = !sw.viewStale();
  std::size_t next = 0;
  for (int port : sw.uplinkGroup()) {
    const net::Link& link = sw.port(port);
    const net::PortView* entry = link.viewEntry();
    if (current && link.up()) {
      if (next >= view.size() || view[next].port != port ||
          entry != &view[next]) {
        report(now, "uplink view: switch %s: up port %d is not entry %zu",
               sw.name().c_str(), port, next);
        return;
      }
      ++next;
    } else if (current && entry != nullptr) {
      report(now, "uplink view: switch %s: down port %d keeps an entry",
             sw.name().c_str(), port);
      return;
    }
    if (entry == nullptr) continue;
    const net::PortView fresh = sw.freshView(port);
    if (entry->queueBytes != fresh.queueBytes ||
        (current &&
         (entry->rateBps != fresh.rateBps ||
          entry->linkDelaySec != fresh.linkDelaySec ||
          entry->wait != fresh.wait))) {
      report(now,
             "uplink view: switch %s port %d: kept %lld B, %.17g bps, "
             "%.17g s, wait %.17g; link %lld B, %.17g bps, %.17g s, wait "
             "%.17g",
             sw.name().c_str(), port,
             static_cast<long long>(entry->queueBytes.bytes()),
             entry->rateBps, entry->linkDelaySec, entry->wait,
             static_cast<long long>(fresh.queueBytes.bytes()),
             fresh.rateBps, fresh.linkDelaySec, fresh.wait);
    }
  }
  if (current && next != view.size()) {
    report(now, "uplink view: switch %s: %zu entries for %zu up uplinks",
           sw.name().c_str(), view.size(), next);
  }
}

void InvariantAuditor::auditTlbs(SimTime now) {
  for (const auto& w : tlbs_) {
    ++checksRun_;
    const ByteCount qth = w.tlb->qthBytes();
    if (qth < 0_B) {
      report(now, "tlb: q_th negative (%lld bytes)",
             static_cast<long long>(qth.bytes()));
    }
    if (w.qthCapBytes > 0_B && qth > w.qthCapBytes) {
      report(now, "tlb: q_th %lld bytes above admissible cap %lld",
             static_cast<long long>(qth.bytes()),
             static_cast<long long>(w.qthCapBytes.bytes()));
    }
  }
}

void InvariantAuditor::auditFlows(SimTime now) {
  // Each watched flow's packets in the store, superseded copies aside.
  using State = net::PacketStore::State;
  util::FlowIndex<std::int64_t> stored;
  for (const auto& w : flows_) stored.assign(w.sender->flow().id, 0);
  for (std::uint32_t h = 0; store_ != nullptr && h < store_->capacity(); ++h) {
    const net::PacketStore::Slot& slot = (*store_)[h];
    const std::int64_t* n = stored.find(slot.pkt.flow);
    if (n != nullptr && slot.state != State::kFree &&
        slot.state != State::kVoid) {
      stored.assign(slot.pkt.flow, *n + 1);
    }
  }
  for (const auto& w : flows_) {
    ++checksRun_;
    const transport::TcpSender& snd = *w.sender;
    const transport::TcpReceiver& rcv = *w.receiver;
    const auto flowId = static_cast<unsigned long long>(snd.flow().id);
    const ByteCount size = snd.flow().size;

    const std::int64_t counted =
        std::int64_t{snd.packetsInNetwork()} + rcv.packetsInNetwork();
    const std::int64_t held = *stored.find(snd.flow().id);
    if (store_ != nullptr && counted != held) {
      report(now,
             "flow %llu: in-network count: the endpoints count %lld "
             "packets, the store holds %lld",
             flowId, static_cast<long long>(counted),
             static_cast<long long>(held));
    }

    if (snd.bytesAcked() > snd.bytesSent()) {
      report(now, "flow %llu: snd_una %lld beyond snd_nxt %lld", flowId,
             static_cast<long long>(snd.bytesAcked().bytes()),
             static_cast<long long>(snd.bytesSent().bytes()));
    }
    if (snd.bytesSent() > size) {
      report(now, "flow %llu: snd_nxt %lld beyond flow size %lld", flowId,
             static_cast<long long>(snd.bytesSent().bytes()),
             static_cast<long long>(size.bytes()));
    }
    // ACK information only flows from the receiver back, so the sender's
    // cumulative ack can lag the receiver's but never lead it.
    if (static_cast<std::uint64_t>(snd.bytesAcked().bytes()) > rcv.cumulativeAck()) {
      report(now, "flow %llu: sender acked %lld ahead of receiver's %llu",
             flowId, static_cast<long long>(snd.bytesAcked().bytes()),
             static_cast<unsigned long long>(rcv.cumulativeAck()));
    }
    if (rcv.cumulativeAck() > static_cast<std::uint64_t>(size.bytes())) {
      report(now, "flow %llu: receiver ack %llu beyond flow size %lld",
             flowId, static_cast<unsigned long long>(rcv.cumulativeAck()),
             static_cast<long long>(size.bytes()));
    }
    if (rcv.outOfOrderPackets() > rcv.dataPacketsReceived()) {
      report(now, "flow %llu: %llu out-of-order among %llu data packets",
             flowId,
             static_cast<unsigned long long>(rcv.outOfOrderPackets()),
             static_cast<unsigned long long>(rcv.dataPacketsReceived()));
    }
    if (snd.completed() && snd.bytesAcked() < size) {
      report(now, "flow %llu: completed with %lld of %lld bytes acked",
             flowId, static_cast<long long>(snd.bytesAcked().bytes()),
             static_cast<long long>(size.bytes()));
    }
    const double cwnd = snd.cwndBytes();
    if (size > 0_B &&
        (cwnd < static_cast<double>(w.mss.bytes()) || cwnd > 1e15 || cwnd != cwnd)) {
      report(now, "flow %llu: cwnd %.1f outside [1 MSS=%lld, finite)",
             flowId, cwnd, static_cast<long long>(w.mss.bytes()));
    }
  }
}

void InvariantAuditor::auditHosts(SimTime now) {
  if (hosts_.empty()) return;
  ++checksRun_;
  std::uint64_t orphans = 0;
  for (const net::Host* host : hosts_) orphans += host->orphanPackets();
  // Reported once per increase, not on every later tick.
  if (orphans > orphanPackets_) {
    report(now,
           "%llu packets arrived for unbound flows (%llu new): endpoints "
           "were reused before their flow drained",
           static_cast<unsigned long long>(orphans),
           static_cast<unsigned long long>(orphans - orphanPackets_));
  }
  orphanPackets_ = orphans;
}

void InvariantAuditor::auditConservation(SimTime now) {
  // End-to-end packet conservation needs every link watched; partial
  // coverage would mis-attribute packets queued on unwatched links.
  if (!topologyComplete_ || !flowsWatched_) return;
  ++checksRun_;

  std::uint64_t dataSent = retiredDataSent_;
  std::uint64_t dataReceived = retiredDataReceived_;
  for (const auto& w : flows_) {
    dataSent += w.sender->dataPacketsSent();
    dataReceived += w.receiver->dataPacketsReceived();
  }
  std::uint64_t drops = 0;
  std::uint64_t faultDrops = 0;
  std::uint64_t inNetwork = 0;
  std::uint64_t slotsHeld = 0;
  for (const auto& w : links_) {
    slotsHeld += w.link->storeSlotsHeld();
    drops += w.link->drops();
    faultDrops += w.link->faultDrops();
    // Enqueued packets that were neither delivered nor lost to a fault
    // are still inside the link (queued, serializing, or on the wire).
    // Fault-rejected packets never entered the queue, so they are not
    // part of this difference.
    inNetwork += w.link->enqueuedPackets() - w.link->deliveredPackets() -
                 w.link->faultFlushedPackets() - w.link->faultWireDrops();
  }
  // Every live slot of the store belongs to a link: none leaked, none
  // freed twice.
  if (slotsHeld != store_->live()) {
    report(now, "packet store: %zu live slots but the links hold %llu",
           store_->live(), static_cast<unsigned long long>(slotsHeld));
  }
  if (dataReceived > dataSent) {
    report(now, "conservation: %llu data packets received but only %llu "
           "sent",
           static_cast<unsigned long long>(dataReceived),
           static_cast<unsigned long long>(dataSent));
  } else if (dataSent - dataReceived > drops + faultDrops + inNetwork) {
    report(now,
           "conservation: %llu data packets unaccounted for (sent %llu, "
           "received %llu, dropped %llu, fault-dropped %llu, in network "
           "%llu)",
           static_cast<unsigned long long>(dataSent - dataReceived - drops -
                                           faultDrops - inNetwork),
           static_cast<unsigned long long>(dataSent),
           static_cast<unsigned long long>(dataReceived),
           static_cast<unsigned long long>(drops),
           static_cast<unsigned long long>(faultDrops),
           static_cast<unsigned long long>(inNetwork));
  }
}

void InvariantAuditor::auditServices(SimTime now) {
  for (const app::Service* service : services_) {
    ++checksRun_;
    std::vector<std::string> messages;
    if (service->auditOpenQueries(&messages) > 0) {
      for (const std::string& msg : messages) {
        report(now, "app service: %s", msg.c_str());
      }
    }
  }
}

}  // namespace tlbsim::check
