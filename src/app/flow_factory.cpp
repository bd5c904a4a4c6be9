#include "app/flow_factory.hpp"

namespace tlbsim::app {

transport::FlowSpec FlowFactory::rpcFlow(FlowId id, net::HostId src,
                                         net::HostId dst, ByteCount size,
                                         SimTime start) {
  transport::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.size = size;
  spec.start = start;
  spec.deadline = 0_ns;
  return spec;
}

}  // namespace tlbsim::app
