// DRILL (micro load balancing): per packet, sample `d` random queues plus
// the best queue remembered from the previous decision, and send to the
// shortest of them (power-of-two-choices with memory).
#pragma once

#include "lb/selector_util.hpp"
#include "net/uplink_selector.hpp"
#include "util/rng.hpp"

namespace tlbsim::lb {

class Drill final : public net::UplinkSelector {
 public:
  explicit Drill(std::uint64_t seed, int samples = 2)
      : rng_(seed), samples_(samples) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    (void)pkt;
    int bestPort = -1;
    ByteCount bestBytes;
    // Previously-remembered best, if still in the group.
    if (const net::PortView* m = findPort(uplinks, memoryPort_)) {
      bestPort = m->port;
      bestBytes = m->queueBytes;
    }
    for (int i = 0; i < samples_; ++i) {
      const auto& u = uplinks[rng_.uniformInt(uplinks.size())];
      if (bestPort < 0 || u.queueBytes < bestBytes) {
        bestPort = u.port;
        bestBytes = u.queueBytes;
      }
    }
    memoryPort_ = bestPort;
    return bestPort;
  }

  const char* name() const override { return "DRILL"; }

 private:
  Rng rng_;
  int samples_;
  int memoryPort_ = -1;
};

/// Per-packet global shortest queue (DRILL with full visibility); used as
/// an ablation of TLB's short-flow spraying rule.
class ShortestQueue final : public net::UplinkSelector {
 public:
  explicit ShortestQueue(std::uint64_t seed) : rng_(seed) {}

  int selectUplink(const net::Packet& pkt,
                   const net::UplinkView& uplinks) override {
    (void)pkt;
    return uplinks[shortestQueueIndex(uplinks, rng_)].port;
  }

  const char* name() const override { return "ShortestQueue"; }

 private:
  Rng rng_;
};

}  // namespace tlbsim::lb
