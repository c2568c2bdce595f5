// Node: base class of everything attached to the simulated network
// (hosts, OpenFlow switches, trusted hubs, compare elements...).
//
// A node owns nothing about the links; the Network container wires link
// channels to node ports and binds each channel's receive side to the
// node (a Node is the link::Receiver of its ports). A node whose ingress
// pipeline has a fixed delay sets it with set_merged_ingress_delay(); its
// links then deliver straight into enter_pipeline() that long after the
// arrival, one event instead of two. Ports are dense
// indices starting at 0 — matching OpenFlow port numbering in spirit
// (OpenFlow numbers from 1; the switch layer handles that offset).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "link/link.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace netco::device {

/// Index of a port on a node (0-based, dense).
using PortIndex = std::uint32_t;

/// Sentinel meaning "no port" (e.g. packets injected by the control plane).
inline constexpr PortIndex kNoPort = static_cast<PortIndex>(-1);

/// Base class for all simulated devices.
class Node : public link::Receiver {
 public:
  Node(sim::Simulator& simulator, std::string name)
      : simulator_(simulator), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Delivery entry point, invoked by the link layer when a packet fully
  /// arrives on `in_port`.
  void handle_packet(PortIndex in_port, net::Packet packet) override = 0;

  /// Registers an outgoing channel and returns the new port's index.
  /// Called by Network during wiring; not part of the device API proper.
  PortIndex attach_channel(link::Channel* out);

  /// Transmits `packet` out of `port`.
  void send(PortIndex port, net::Packet packet);

  /// Transmits a copy of `packet` on every port except `except`
  /// (pass kNoPort to use all ports). This is OpenFlow FLOOD.
  void flood(PortIndex except, const net::Packet& packet);

  /// Number of attached ports.
  [[nodiscard]] std::size_t port_count() const noexcept { return out_.size(); }

  /// The outgoing channel behind `port` (for stats inspection).
  [[nodiscard]] const link::Channel& channel(PortIndex port) const;

  /// Human-readable unique name ("s1", "r2", "h1"...).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The event loop this node lives in.
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

 private:
  sim::Simulator& simulator_;
  std::string name_;
  std::vector<link::Channel*> out_;
};

}  // namespace netco::device
