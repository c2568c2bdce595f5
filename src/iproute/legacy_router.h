// LegacyRouter: a classic (non-OpenFlow) IPv4 router.
//
// The paper's conclusion: "while we have so far focused on building a
// secure router out of insecure OpenFlow switches, we believe that our
// approach can easily be extended to legacy routers." This node is that
// extension target: per-interface IP/MAC, longest-prefix-match forwarding,
// TTL decrement with incremental checksum fix, ICMP time-exceeded and
// echo handling on its own addresses — and the same DatapathInterceptor
// hook, because a legacy router is just as untrusted as an OF switch.
//
// One subtlety the paper glosses over: a router rewrites the Ethernet
// source to its own interface MAC, so k *distinct* replicas would produce
// bit-different copies and the memcmp compare would never match. The
// combiner therefore deploys replicas as exact configuration clones (same
// interface MACs/IPs) — which is natural: all k replicas emulate the same
// logical router.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "device/datapath.h"
#include "device/node.h"
#include "iproute/lpm.h"
#include "net/headers.h"
#include "sim/time.h"

namespace netco::iproute {

/// A next hop: leave through `port`, address the frame to `next_mac`.
struct NextHop {
  device::PortIndex port = 0;
  net::MacAddress next_mac;
};

/// Per-interface configuration.
struct Interface {
  net::MacAddress mac;
  net::Ipv4Address ip;
};

/// Router counters.
struct RouterStats {
  std::uint64_t forwarded = 0;
  std::uint64_t no_route = 0;
  std::uint64_t ttl_expired = 0;
  std::uint64_t for_self = 0;        ///< packets addressed to an interface
  std::uint64_t non_ip_dropped = 0;  ///< legacy router routes IPv4 only
};

/// A classic IPv4 router node.
class LegacyRouter : public device::Node, public device::Datapath {
 public:
  LegacyRouter(sim::Simulator& simulator, std::string name,
               sim::Duration processing_delay = sim::Duration::microseconds(15))
      : Node(simulator, std::move(name)), delay_(processing_delay) {
    set_merged_ingress_delay(delay_);
  }

  /// Declares the interface behind port index == interfaces().size().
  /// Call once per port, in wiring order.
  void add_interface(Interface interface) {
    interfaces_.push_back(interface);
  }

  /// Adds prefix/len → next hop to the FIB (replaces an existing entry).
  void add_route(net::Ipv4Address prefix, int len, NextHop hop) {
    fib_.insert(prefix, len, hop);
  }

  /// Withdraws a FIB entry (routing protocols retract what they installed).
  /// False when no such entry existed.
  bool remove_route(net::Ipv4Address prefix, int len) {
    return fib_.remove(prefix, len);
  }

  /// Arrival-time entry: routes `delay_` later. Links skip it and deliver
  /// straight into enter_pipeline() `delay_` after the arrival instead.
  void handle_packet(device::PortIndex in_port, net::Packet packet) override;
  void enter_pipeline(device::PortIndex in_port, net::Packet packet) override {
    route(in_port, std::move(packet));
  }

  /// The untrusted-datapath hook (same contract as OpenFlowSwitch).
  void set_interceptor(device::DatapathInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  /// Local protocol delivery: UDP datagrams addressed to one of this
  /// router's interface IPs are handed here (after the for-self check)
  /// instead of being silently absorbed — the hook a control-plane
  /// process (routing::RipSpeaker) registers to receive announcements.
  /// nullptr clears.
  using LocalDelivery = std::function<void(
      device::PortIndex, const net::ParsedPacket&, const net::Packet&)>;
  void set_local_delivery(LocalDelivery delivery) {
    local_delivery_ = std::move(delivery);
  }

  /// Emits `packet` directly on `port` (interceptors use this).
  void raw_output(device::PortIndex port, net::Packet packet) override;

  /// Datapath: the event loop.
  sim::Simulator& datapath_simulator() override { return simulator(); }

  [[nodiscard]] const RouterStats& router_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::vector<Interface>& interfaces() const noexcept {
    return interfaces_;
  }
  [[nodiscard]] const LpmTable<NextHop>& fib() const noexcept { return fib_; }

 private:
  void route(device::PortIndex in_port, net::Packet packet);
  void send_time_exceeded(device::PortIndex in_port,
                          const net::ParsedPacket& parsed);
  void answer_echo(device::PortIndex in_port, const net::ParsedPacket& parsed,
                   const net::Packet& packet);

  sim::Duration delay_;
  std::vector<Interface> interfaces_;
  LpmTable<NextHop> fib_;
  device::DatapathInterceptor* interceptor_ = nullptr;
  LocalDelivery local_delivery_;
  RouterStats stats_;
};

}  // namespace netco::iproute
