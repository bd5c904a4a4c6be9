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

std::uint32_t EndpointPool::retireDrained(ReorderBuffer* spare) {
  if (keepPairs_) return kNone;
  std::uint32_t index = kNone;
  for (int checks = kChecks; checks > 0 && finishedHead_ != kNone;
       --checks) {
    const std::uint32_t head = finishedHead_;
    finishedHead_ = slots_[head].nextFinished;
    if (finishedHead_ == kNone) finishedTail_ = kNone;
    if (slots_[head].drained()) {
      index = head;
      break;
    }
    pushFinished(head);  // still draining: to the back
  }
  if (index == kNone) return kNone;

  Slot& s = slots_[index];
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
      [this, index](TcpSender&) {
        pushFinished(index);
        slots_[index].onComplete();
      });
  index_.assign(spec.id, index);
  if (launchHook_) launchHook_(*snd, *rcv, tag);
  snd->startNow();
}

void EndpointPool::pushFinished(std::uint32_t index) {
  slots_[index].nextFinished = kNone;
  if (finishedTail_ == kNone) {
    finishedHead_ = index;
  } else {
    slots_[finishedTail_].nextFinished = index;
  }
  finishedTail_ = index;
}

}  // namespace tlbsim::transport
