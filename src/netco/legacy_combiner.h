// Robust combiner around a *legacy* (non-OpenFlow) router position — the
// extension sketched in the paper's conclusion ("our approach can easily
// be extended to legacy routers").
//
// Only the replicas differ from the OpenFlow combiner: the trusted half
// (edges as hub/compare-feeders, out-of-band compare) is the same
// wire_trusted_edges() step (combiner.h). The k replicas are LegacyRouter
// instances deployed as exact configuration clones: same interface MACs
// and IPs on every replica, so their L2 rewrites and TTL decrements
// produce bit-identical copies that the memcmp compare accepts. A
// replica's own frames (ICMP replies, time-exceeded) carry an interface
// MAC as dl_src, which is no local host MAC: they pass the edge's
// anti-spoof screen and leave through its MAC routes like any release.
#pragma once

#include <string>
#include <vector>

#include "device/network.h"
#include "iproute/legacy_router.h"
#include "netco/combiner.h"

namespace netco::core {

/// One neighbor of the legacy router position.
struct LegacyAttachment : PortAttachment {
  /// The logical router's interface on this port — cloned to all replicas.
  iproute::Interface interface;
};

/// Handles to the built combiner.
struct LegacyCombinerInstance : TrustedEdges {
  std::vector<iproute::LegacyRouter*> replicas;

  /// Installs prefix/len → next hop (out through attachment `idx`,
  /// addressed to `next_mac`) into every replica's FIB.
  void add_route(net::Ipv4Address prefix, int len, std::size_t idx,
                 const net::MacAddress& next_mac);
};

/// Builds the combiner; replica FIBs start empty (use add_route). Replica
/// j forwards with the processing delay of options.replica_profiles[j]
/// (cycled; default_replica_profiles() when empty).
LegacyCombinerInstance build_legacy_combiner(
    device::Network& network, const CombinerOptions& options,
    const std::vector<LegacyAttachment>& attachments,
    const std::string& name_prefix);

}  // namespace netco::core
