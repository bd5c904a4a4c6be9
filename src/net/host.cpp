#include "net/host.hpp"

#include "util/check.hpp"

namespace tlbsim::net {

void Host::bind(FlowId flow, PacketHandler* handler) {
  TLBSIM_ASSERT(flow != kInvalidFlow, "%s: bind of the invalid flow id",
                name_.c_str());
  TLBSIM_ASSERT(handler != nullptr, "%s: null handler for flow %llu",
                name_.c_str(), static_cast<unsigned long long>(flow));
  demux_.assign(flow, handler);
}

}  // namespace tlbsim::net
