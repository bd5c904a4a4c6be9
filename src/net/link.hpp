// Unidirectional link: an output queue + a serializing transmitter + a
// propagation pipe. This is the standard ns-2 output-queued link model:
// at most one packet is being serialized at a time; any number can be in
// flight across the propagation delay.
//
// A hop costs one event, as in ns-2's LinkDelay::recv: when a packet's
// serialization starts, the link posts its outcome at once (the delivery
// at serialization end plus propagation, or a loss at serialization end)
// and, only if packets wait behind it, a wake for when the transmitter
// frees up.
//
// A packet is copied once on its whole trip: into a slot of the fabric's
// PacketStore, when its host's NIC link takes it (send(const Packet&)).
// The slot stays put while the packet waits, is serialized and
// propagates; the posted event reads the packet's fate from the slot and
// hands the slot itself to the peer. A switch passes it to its next
// link's send(Handle), and a host frees it once its endpoint has read the
// packet, as ns-2 passes one Packet from hop to hop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_store.hpp"
#include "net/queue.hpp"
#include "net/uplink_selector.hpp"
#include "sim/simulator.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace tlbsim::net {

class Link {
 public:
  using Handle = PacketStore::Handle;

  // Hooks fire on the per-packet data path, so they use the same
  // small-buffer callable as the event core (no std::function, no heap
  // for pointer-sized captures, single indirect call to invoke).
  /// Called with each packet as it leaves the queue, together with the time
  /// it spent queued. Used by the stats layer; null by default.
  using DequeueHook =
      util::InlineFunction<void(const Packet&, SimTime queueDelay)>;
  /// Called with each packet the full queue rejects (a network drop).
  using DropHook = util::InlineFunction<void(const Packet&)>;
  /// Called with each packet the queue ECN-marks on enqueue (pkt.ce set).
  using MarkHook = util::InlineFunction<void(const Packet&)>;
  /// Called with each packet lost to an injected fault (rejected while the
  /// link is down, flushed from the queue on faultDown, killed on the wire,
  /// or gray-dropped). Distinct from DropHook so auditors can separate
  /// fault losses from queue-overflow losses.
  using FaultDropHook = util::InlineFunction<void(const Packet&)>;

  /// Queued and in-flight packets live in `store`, which must outlive
  /// the link's events (net::Fabric owns one for all its links).
  Link(sim::Simulator& simr, PacketStore& store, LinkRate rate,
       SimTime propagationDelay, QueueConfig queueCfg)
      : sim_(simr),
        store_(store),
        rate_(rate),
        delay_(propagationDelay),
        queue_(store, queueCfg) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attach the receiving end. `peerPort` is the port index the peer sees
  /// the packet arrive on.
  void connect(Node* peer, int peerPort) {
    peer_ = peer;
    peerPort_ = peerPort;
  }

  /// The NIC entry point: copy `pkt`, which no link holds yet, into a
  /// store slot and send that.
  void send(const Packet& pkt) { send(store_.alloc(pkt)); }
  /// Queue the packet held in store slot `slot` for transmission. The link
  /// owns the slot from here: a full queue (drop-tail) or a down link
  /// reports the packet lost and frees it, so the caller must not read the
  /// packet after this call.
  void send(Handle slot);

  // --- queue state (what a load balancer sees) -------------------------
  int queuePackets() const { return queue_.packets(); }
  ByteCount queueBytes() const { return queue_.bytes(); }
  const DropTailQueue& queue() const { return queue_; }

  // --- the switch's kept view of this link (see Switch::uplinkView) -----
  /// Called by the switch whose uplink group holds this link. `entry` is
  /// the link's entry in the switch's view, or null while the link is out
  /// of it (down, or not an uplink); the link keeps its queue bytes and
  /// wait current on every enqueue, dequeue and fault flush. `stale` is
  /// the switch's rebuild mark, raised by a fault that changes whether the
  /// link is up, or its rate or delay.
  void bindView(PortView* entry, bool* stale) {
    viewEntry_ = entry;
    viewStale_ = stale;
  }
  /// The kept entry, or null (the auditor compares it with the queue).
  const PortView* viewEntry() const { return viewEntry_; }

  // --- configuration ----------------------------------------------------
  LinkRate rate() const { return rate_; }
  SimTime propagationDelay() const { return delay_; }
  Node* peer() const { return peer_; }
  sim::Simulator& simulator() { return sim_; }

  // --- fault state (mutators reserved for fault::FaultInjector) ---------
  // The faultXxx mutators below model operational failures. Only the
  // fault-injection subsystem (src/fault) may call them — enforced by the
  // tlbsim_lint `fault-mutation` rule — so every mid-run topology change
  // flows through one declarative, seed-deterministic plan.
  //
  // The packet being serialized meets the fault state in force when its
  // serialization ends: a down, up, delay or drop-probability change that
  // lands mid-serialization re-decides that packet's outcome. A rate
  // change acts from the next packet.
  bool up() const { return up_; }
  /// Serialization rate after degradation (== rate() while healthy).
  LinkRate effectiveRate() const { return rate_.scaled(rateFactor_); }
  /// Propagation delay after inflation (== propagationDelay() healthy).
  SimTime effectiveDelay() const { return delay_ * delayFactor_; }

  /// Take the link down. The queue is flushed (flushed packets count as
  /// fault drops, not queue drops). Unless `drainInFlight`, the packet
  /// being serialized dies at serialization end and in-flight packets die
  /// at their arrival times; while down, send() rejects every packet.
  void faultDown(bool drainInFlight);
  /// Restore the link; transmission resumes if packets are queued.
  void faultUp();
  /// Degrade (factor < 1) or restore (factor == 1) the serialization rate.
  void faultSetRateFactor(double factor);
  /// Inflate (factor > 1) or restore (factor == 1) the propagation delay.
  void faultSetDelayFactor(double factor);
  /// Gray failure: silently drop each serialized packet with probability
  /// `prob`, decided by a link-local RNG reseeded with `seed` (so drop
  /// sequences are deterministic per link and independent of other links).
  void faultSetDropProb(double prob, std::uint64_t seed);
  // --- statistics ---------------------------------------------------------
  /// Packets (bytes) whose serialization has ended.
  std::uint64_t txPackets() const {
    return startedPackets_ - (transmitting() ? 1 : 0);
  }
  ByteCount txBytes() const {
    return transmitting() ? startedBytes_ - store_[txSlot_].pkt.size
                          : startedBytes_;
  }
  std::uint64_t drops() const { return queue_.drops(); }
  /// Packets accepted into the queue since construction (audit support:
  /// enqueued == tx + queued + serializing must hold at all times).
  std::uint64_t enqueuedPackets() const { return enqueuedPackets_; }
  /// Packets handed to the peer after propagation; tx - delivered is the
  /// number currently in flight on the wire.
  std::uint64_t deliveredPackets() const { return deliveredPackets_; }
  /// A packet is being serialized: now is before the latest
  /// serialization's end.
  bool transmitting() const { return sim_.now() < busyUntil_; }
  /// Cumulative time the transmitter has been busy; utilization over a
  /// window is the delta of this divided by the window.
  SimTime busyTime() const { return busyTime_; }
  /// Store slots this link holds: its queued packets, its started packets
  /// whose event has not fired (serializing or on the wire), and the
  /// superseded copies whose event has not fired. Derived from the packet
  /// counters, so the auditor can check the store against it.
  std::uint64_t storeSlotsHeld() const {
    return static_cast<std::uint64_t>(queue_.packets()) + startedPackets_ -
           deliveredPackets_ - faultWireDrops_ + voidSlots_;
  }

  // --- fault-loss statistics (disjoint from queue drops()) --------------
  /// Packets send() rejected while the link was down (never enqueued).
  std::uint64_t faultRejectedPackets() const { return faultRejectedPackets_; }
  /// Packets flushed out of the queue by faultDown (were enqueued).
  std::uint64_t faultFlushedPackets() const { return faultFlushedPackets_; }
  /// Packets lost after leaving the queue: killed while serializing or in
  /// flight by a drop-mode faultDown, or gray-dropped (were enqueued and
  /// started).
  std::uint64_t faultWireDrops() const { return faultWireDrops_; }
  /// All fault-induced losses on this link.
  std::uint64_t faultDrops() const {
    return faultRejectedPackets_ + faultFlushedPackets_ + faultWireDrops_;
  }

  /// Register an observer; multiple observers (stats + tracing) coexist.
  void addDequeueHook(DequeueHook hook) {
    dequeueHooks_.push_back(std::move(hook));
  }
  void addDropHook(DropHook hook) { dropHooks_.push_back(std::move(hook)); }
  void addMarkHook(MarkHook hook) { markHooks_.push_back(std::move(hook)); }
  void addFaultDropHook(FaultDropHook hook) {
    faultDropHooks_.push_back(std::move(hook));
  }

  /// Give this link a trace track named `label`, where serializations
  /// render as spans and drops, marks and fault losses as instant events.
  /// Without this call the data path pays one null-pointer branch per
  /// event class.
  void installTrace(obs::EventTrace& trace, const std::string& label);

  /// Add this link's counts so far to "port.<label>.tx_packets"
  /// (serializations started), ".drops", ".ecn_marks" and ".fault_drops".
  void addCountersTo(obs::MetricsRegistry& metrics,
                     const std::string& label) const;

 private:
  void serve();
  void wake();
  void startTransmission();
  void decide();
  void redecide();
  void land(Handle slot);
  void noteFaultDrop(const Packet& pkt);
  /// Bring the kept view entry to the queue's depth.
  void syncView() {
    if (viewEntry_ != nullptr) viewEntry_->setQueueBytes(queue_.bytes());
  }
  /// Mark the owning switch's view for a rebuild.
  void staleView() {
    if (viewStale_ != nullptr) *viewStale_ = true;
  }

  sim::Simulator& sim_;
  PacketStore& store_;
  LinkRate rate_;
  SimTime delay_;
  DropTailQueue queue_;
  Node* peer_ = nullptr;
  int peerPort_ = -1;
  /// End of the latest serialization; the transmitter is busy before it.
  SimTime busyUntil_;
  /// A wake is posted for busyUntil_ to start the next queued packet.
  bool wakePending_ = false;

  // A started packet keeps the store slot it was queued in until its
  // event fires, so the event captures [this, slot] (16 bytes — inline in
  // EventFn) instead of a whole Packet, and the slot carries the fate and
  // wire epoch the event reads.
  /// Slot of the packet being serialized (valid while transmitting()).
  Handle txSlot_ = PacketStore::kNone;
  /// Superseded copies whose event has not fired.
  std::uint64_t voidSlots_ = 0;
  /// That packet's gray-drop draw, made when it started.
  bool txGrayDrop_ = false;
  /// Arrival time of the latest packet put on the wire; later packets
  /// arrive no earlier (the cable stays FIFO across delay faults).
  SimTime lastArrival_;
  /// lastArrival_ before the packet being serialized was decided: the
  /// floor its re-decision starts from.
  SimTime arrivalFloor_;

  // Fault state. wireEpoch_ is bumped by every drop-mode faultDown; each
  // scheduled delivery carries the epoch it departed under and is discarded
  // on mismatch (this is how in-flight packets die deterministically).
  bool up_ = true;
  double rateFactor_ = 1.0;
  double delayFactor_ = 1.0;
  double dropProb_ = 0.0;
  bool drainInFlight_ = false;
  std::uint64_t wireEpoch_ = 0;
  Rng faultRng_{0};
  std::uint64_t faultRejectedPackets_ = 0;
  std::uint64_t faultFlushedPackets_ = 0;
  std::uint64_t faultWireDrops_ = 0;

  std::uint64_t startedPackets_ = 0;
  ByteCount startedBytes_;
  std::uint64_t enqueuedPackets_ = 0;
  std::uint64_t deliveredPackets_ = 0;
  SimTime busyTime_;
  std::vector<DequeueHook> dequeueHooks_;
  std::vector<DropHook> dropHooks_;
  std::vector<MarkHook> markHooks_;
  std::vector<FaultDropHook> faultDropHooks_;

  /// The owning switch's view entry and rebuild mark (see bindView).
  PortView* viewEntry_ = nullptr;
  bool* viewStale_ = nullptr;

  // Trace sink (null = disabled; see installTrace).
  obs::EventTrace* trace_ = nullptr;
  const char* traceLabel_ = nullptr;
  int traceTid_ = 0;
};

}  // namespace tlbsim::net
