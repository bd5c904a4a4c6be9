// EndpointPool: the TCP endpoints of flows that start during a run, built
// when each flow starts and reused once it has drained, so a run holds
// endpoints for the flows in flight rather than for every flow it made.
//
// launch() runs inside the event that starts a flow. It takes a finished
// pair that has drained (or adds a pair), builds the flow's receiver and
// sender in that storage, and sends the SYN. A pair finishes when its
// sender completes, and has drained when its endpoints' counts of packets
// in the network sum to zero (transport::Endpoint). It then has no timer
// pending (complete() cancels the sender's; the receiver has none), and
// an endpoint sends only in answer to a packet or a timer, so nothing of
// the flow can happen again.
//
// Finished pairs wait in a FIFO in the order they finished, so the head
// has nearly always drained. A launch checks at most kChecks pairs from
// the head and moves each still draining to the tail: a pair that never
// drains (a loss its endpoint never heard of) costs one check each time
// it comes round, not a walk on every launch.
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

  /// Keep every pair to the end of the run (a test's no-reuse baseline).
  void keepPairs() { keepPairs_ = true; }

  /// Start `spec` now, from inside its start event (spec.start == now):
  /// retire a drained pair into it, or add a pair; build the
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

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Finished pairs a launch checks before it adds a pair.
  static constexpr int kChecks = 8;

  struct Slot {
    alignas(TcpSender) std::byte senderBytes[sizeof(TcpSender)];
    alignas(TcpReceiver) std::byte receiverBytes[sizeof(TcpReceiver)];
    Completion onComplete;
    std::uint64_t tag = 0;
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
    /// None of the flow's packets is in the network.
    bool drained() const {
      return sender().packetsInNetwork() + receiver().packetsInNetwork() ==
             0;
    }
  };

  /// Take a drained pair off the finished FIFO and retire its flow;
  /// returns its index, or kNone when none of the pairs checked drained.
  std::uint32_t retireDrained(ReorderBuffer* spare);
  /// Append a finished pair to the FIFO.
  void pushFinished(std::uint32_t index);

  sim::Simulator& sim_;
  net::Fabric& topo_;
  TcpParams params_;
  bool keepPairs_ = false;
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
