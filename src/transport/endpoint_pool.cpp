#include "transport/endpoint_pool.hpp"

#include <utility>

#include "util/check.hpp"

namespace tlbsim::transport {

EndpointPool::EndpointPool(sim::Simulator& simr, net::Fabric& topo,
                           const TcpParams& params)
    : sim_(simr), topo_(topo), params_(params) {}

EndpointPool::~EndpointPool() {
  for (Slot& s : slots_) {
    std::destroy_at(&s.sender());
    std::destroy_at(&s.receiver());
  }
}

SimTime EndpointPool::safeDrainTime(const net::Fabric& topo,
                                    const TcpParams& params) {
  return 2 * topo.worstCaseOneWay(params.maxSegmentWireSize());
}

std::uint32_t EndpointPool::retireDrained(ReorderBuffer* spare) {
  if (finishedHead_ == kNone ||
      slots_[finishedHead_].reusableAt >= sim_.now()) {
    return kNone;
  }
  const std::uint32_t index = finishedHead_;
  Slot& s = slots_[index];
  finishedHead_ = s.nextFinished;
  if (finishedHead_ == kNone) finishedTail_ = kNone;

  TcpSender& snd = s.sender();
  TcpReceiver& rcv = s.receiver();
  if (retireHook_) retireHook_(snd, rcv, s.tag);
  const FlowSpec& flow = snd.flow();
  index_.erase(flow.id);
  topo_.host(static_cast<int>(flow.src)).unbind(flow.id);
  topo_.host(static_cast<int>(flow.dst)).unbind(flow.id);
  *spare = rcv.releaseReorderBuffer();
  std::destroy_at(&snd);
  std::destroy_at(&rcv);
  ++reuses_;
  return index;
}

void EndpointPool::launch(const FlowSpec& spec, std::uint64_t tag,
                          Completion onComplete) {
  TLBSIM_DCHECK(spec.start == sim_.now(),
                "flow %llu launched at %lld ns, outside its start event",
                static_cast<unsigned long long>(spec.id),
                static_cast<long long>(sim_.now().ns()));
  if (drain_ < 0_ns) drain_ = safeDrainTime(topo_, params_);
  ReorderBuffer spare;
  std::uint32_t index = retireDrained(&spare);
  if (index == kNone) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[index];
  s.onComplete = std::move(onComplete);
  s.tag = tag;
  TcpReceiver* rcv = std::construct_at(
      reinterpret_cast<TcpReceiver*>(s.receiverBytes), sim_,
      topo_.host(static_cast<int>(spec.dst)), spec, params_, std::move(spare));
  TcpSender* snd = std::construct_at(
      reinterpret_cast<TcpSender*>(s.senderBytes), sim_,
      topo_.host(static_cast<int>(spec.src)), spec, params_,
      [this, index](TcpSender&) { onFinished(index); });
  index_.assign(spec.id, index);
  if (launchHook_) launchHook_(*snd, *rcv, tag);
  snd->startNow();
}

void EndpointPool::onFinished(std::uint32_t index) {
  Slot& s = slots_[index];
  s.reusableAt = sim_.now() + drain_;
  s.nextFinished = kNone;
  if (finishedTail_ == kNone) {
    finishedHead_ = index;
  } else {
    slots_[finishedTail_].nextFinished = index;
  }
  finishedTail_ = index;
  s.onComplete();
}

}  // namespace tlbsim::transport
