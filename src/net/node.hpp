// Base class for anything a link can deliver packets to.
#pragma once

#include <string>

#include "net/packet_store.hpp"

namespace tlbsim::net {

class Node {
 public:
  virtual ~Node() = default;

  /// Deliver the packet in `store`'s slot `slot`, which arrived on the
  /// node's port `inPort`. The node owns the slot from here: it hands it
  /// to its next link (Link::send(Handle)) or frees it, and reads the
  /// packet only before it hands the slot on.
  virtual void receive(PacketStore& store, PacketStore::Handle slot,
                       int inPort) = 0;

  virtual std::string name() const = 0;
};

}  // namespace tlbsim::net
