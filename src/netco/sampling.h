// Sampling-based detection (paper §IX): "An efficient alternative could
// be to reduce load on the compare using sampling: a simple logic in the
// data plane forwards a random subset of packets to a more thorough
// out-of-band compare logic."
//
// Deployment: build_combiner with CombinerOptions::detection set
// (combiner.h). The trusted edge forwards the *primary* replica's output
// downstream immediately (no holding — this is detection, not
// prevention), and for a content-sampled subset of packets it punts every
// replica's copy to the out-of-band compare, which verifies agreement and
// raises mismatch alarms. Sampling is deterministic on packet content so
// the k copies of one packet are always sampled consistently.
//
// This is a tap of its own, not a mode of FastPathTap (§XII): the two
// pick packets differently (a content-hash threshold here, a sequence
// period there), and a shared tap would put a branch on the per-copy hot
// path of sampled verification.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "device/datapath.h"
#include "openflow/switch.h"

namespace netco::core {

/// The trusted edge's sampling logic, installed as the edge switch's
/// datapath hook (the edge is trusted; its hook is policy, not attack).
class SamplingEdgeLogic : public device::DatapathInterceptor {
 public:
  struct Config {
    /// Edge ingress port → replica index.
    std::unordered_map<device::PortIndex, int> replica_ports;
    /// Whose output is forwarded downstream unverified.
    int primary_replica = 0;
    /// Port toward this edge's neighbor (downstream).
    device::PortIndex neighbor_port = 0;
    /// Fraction of packets escalated to the compare, in [0, 1].
    double sample_rate = 0.05;
  };

  /// `edge` is the switch the logic will be installed on — pinned here so
  /// the per-copy path never pays a dynamic_cast.
  SamplingEdgeLogic(Config config, openflow::OpenFlowSwitch* edge)
      : config_(std::move(config)), edge_(edge) {}

  bool intercept(device::Datapath& datapath, device::PortIndex in_port,
                 net::Packet& packet) override;

  /// Packets forwarded downstream / escalated to the compare.
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t sampled() const noexcept { return sampled_; }

  /// The deterministic content-based sampling decision (exposed for
  /// tests: all copies of one packet share it).
  [[nodiscard]] bool is_sampled(const net::Packet& packet) const noexcept;

 private:
  Config config_;
  openflow::OpenFlowSwitch* edge_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t sampled_ = 0;
};

}  // namespace netco::core
