// EndpointPool: the TCP endpoints of flows that start during a run, built
// when each flow starts and reused once it has drained, so a run holds
// endpoints for the flows in flight rather than for every flow it made.
//
// launch() runs inside the event that starts a flow. It takes the oldest
// finished pair whose drain deadline has passed (or adds a pair), builds
// the flow's receiver and sender in that storage, and sends the SYN. A
// pair finishes when its sender completes; its drain deadline is the
// completion time plus drainTime(), by which no packet of the flow can
// still be in the network (safeDrainTime). Completion times never
// decrease, so finished pairs wait in FIFO order and the oldest is always
// at the head.
//
// Reuse is lazy: it posts no event and takes no sequence number, so a run
// fires exactly the events, in exactly the order, it would fire with every
// endpoint kept to the end. A pair's storage lives as long as the pool, so
// a pointer to a sender stays valid; it sees the slot's latest occupant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <utility>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_params.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"
#include "util/flow_index.hpp"
#include "util/inline_function.hpp"

namespace tlbsim::transport {

class EndpointPool {
 public:
  /// Runs when a flow's sender completes (its last byte is acked).
  using Completion = util::InlineFunction<void(), 32>;
  /// Sees a pair with the tag its launch() was given: right after the pair
  /// is built (before the SYN), or just before its storage is reused.
  using PairHook =
      util::InlineFunction<void(TcpSender&, TcpReceiver&, std::uint64_t)>;

  /// The topology and simulator must outlive the pool.
  EndpointPool(sim::Simulator& simr, net::Fabric& topo,
               const TcpParams& params);
  ~EndpointPool();

  EndpointPool(const EndpointPool&) = delete;
  EndpointPool& operator=(const EndpointPool&) = delete;

  void setLaunchHook(PairHook hook) { launchHook_ = std::move(hook); }
  void setRetireHook(PairHook hook) { retireHook_ = std::move(hook); }

  /// Override the drain time (a test plants a too-short one). By default
  /// it is safeDrainTime() of the topology, taken at the first launch, by
  /// which time the run's fault plan is installed.
  void setDrainTime(SimTime drain) { drain_ = drain; }

  /// Start `spec` now, from inside its start event (spec.start == now):
  /// retire the oldest drained pair into it, or add a pair; build the
  /// receiver, then the sender; run the launch hook; send the SYN.
  /// Retiring runs the retire hook, unbinds the old flow at both hosts
  /// (whatever handler is bound there) and destroys the old endpoints.
  void launch(const FlowSpec& spec, std::uint64_t tag, Completion onComplete);

  /// The sender of a flow whose pair has not been reused yet, or null.
  const TcpSender* find(FlowId id) const {
    const std::uint32_t* index = index_.find(id);
    return index != nullptr ? &slots_[*index].sender() : nullptr;
  }

  /// Visit every pair not reused yet, as fn(sender, receiver, tag): the
  /// live flows, the draining ones, and drained ones not yet taken.
  template <typename F>
  void forEach(F&& fn) const {
    for (const Slot& s : slots_) fn(s.sender(), s.receiver(), s.tag);
  }

  /// Pairs built so far: the pool's high-water mark of flows in flight.
  std::size_t pairs() const { return slots_.size(); }
  /// Launches that reused a drained pair.
  std::uint64_t reuses() const { return reuses_; }
  /// Time a finished pair waits before reuse (negative until derived).
  SimTime drainTime() const { return drain_; }

  /// After a sender completes, a packet of its flow can still be in the
  /// network: a late data segment or the FIN needs at most one worst-case
  /// one-way trip, and the ACK or FIN-ACK it draws, sent at once, another.
  /// Hence twice the topology's worst-case one-way time for a full-size
  /// segment.
  static SimTime safeDrainTime(const net::Fabric& topo,
                               const TcpParams& params);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    alignas(TcpSender) std::byte senderBytes[sizeof(TcpSender)];
    alignas(TcpReceiver) std::byte receiverBytes[sizeof(TcpReceiver)];
    Completion onComplete;
    std::uint64_t tag = 0;
    SimTime reusableAt;  ///< drain deadline, once the sender completed
    std::uint32_t nextFinished = kNone;

    TcpSender& sender() {
      return *std::launder(reinterpret_cast<TcpSender*>(senderBytes));
    }
    const TcpSender& sender() const {
      return *std::launder(reinterpret_cast<const TcpSender*>(senderBytes));
    }
    TcpReceiver& receiver() {
      return *std::launder(reinterpret_cast<TcpReceiver*>(receiverBytes));
    }
    const TcpReceiver& receiver() const {
      return *std::launder(
          reinterpret_cast<const TcpReceiver*>(receiverBytes));
    }
  };

  /// Take the oldest drained pair off the finished FIFO and retire its
  /// flow; returns its index, or kNone when no pair has drained yet.
  std::uint32_t retireDrained(ReorderBuffer* spare);
  void onFinished(std::uint32_t index);

  sim::Simulator& sim_;
  net::Fabric& topo_;
  TcpParams params_;
  SimTime drain_ = -1_ns;
  /// Every pair ever built; a deque, so slot addresses never move.
  std::deque<Slot> slots_;
  /// Live and draining flows -> slot index.
  util::FlowIndex<std::uint32_t> index_;
  /// Finished pairs, oldest first, linked through Slot::nextFinished.
  std::uint32_t finishedHead_ = kNone;
  std::uint32_t finishedTail_ = kNone;
  std::uint64_t reuses_ = 0;
  PairHook launchHook_;
  PairHook retireHook_;
};

}  // namespace tlbsim::transport
