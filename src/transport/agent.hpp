// Transport-agent base: an endpoint attached to a node, addressed by
// (flow id), talking to a peer node.
#pragma once

#include <cstdint>

#include "src/net/node.hpp"
#include "src/net/packet.hpp"
#include "src/sim/simulator.hpp"

namespace burst {

class Agent : public PacketHandler {
 public:
  /// Attaches to @p node under @p flow; packets are exchanged with a peer
  /// agent of the same flow id on node @p peer.
  Agent(Simulator& sim, Node& node, FlowId flow, NodeId peer);
  ~Agent() override = default;

  FlowId flow() const { return flow_; }
  NodeId local() const { return node_.id(); }
  NodeId peer() const { return peer_; }
  /// The Simulator that executes this agent's events (in a sharded build,
  /// the LP hosting its node).
  Simulator& sim() const { return sim_; }

  /// Application interface: hands @p packets fixed-size packets to the
  /// transport for (eventual) transmission. Sinks ignore this.
  virtual void app_send(int packets) = 0;

 protected:
  /// Stamps addressing fields and injects the packet into the local node.
  void transmit(Packet p);

  std::uint64_t next_uid() { return ++uid_counter_; }

  Simulator& sim_;
  Node& node_;

 private:
  FlowId flow_;
  NodeId peer_;
  std::uint64_t uid_counter_ = 0;
};

}  // namespace burst
