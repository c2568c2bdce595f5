#include "netco/legacy_combiner.h"

#include "common/assert.h"
#include "common/fmt.h"

namespace netco::core {

void LegacyCombinerInstance::add_route(net::Ipv4Address prefix, int len,
                                       std::size_t idx,
                                       const net::MacAddress& next_mac) {
  NETCO_ASSERT(idx < edges.size());
  for (auto* replica : replicas) {
    replica->add_route(prefix, len,
                       iproute::NextHop{
                           .port = static_cast<device::PortIndex>(idx),
                           .next_mac = next_mac});
  }
}

LegacyCombinerInstance build_legacy_combiner(
    device::Network& network, const CombinerOptions& options,
    const std::vector<LegacyAttachment>& attachments,
    const std::string& name_prefix) {
  NETCO_ASSERT(options.k >= 2);
  const auto k = static_cast<std::size_t>(options.k);

  LegacyCombinerInstance inst;
  const auto profiles = options.replica_profiles.empty()
                            ? default_replica_profiles()
                            : options.replica_profiles;

  // 1. k cloned legacy replicas. Interface configuration is identical on
  //    every replica — they all emulate the same logical router.
  for (std::size_t j = 0; j < k; ++j) {
    auto& replica = network.add_node<iproute::LegacyRouter>(
        fmt("{}-r{}", name_prefix, j),
        profiles[j % profiles.size()].processing_delay);
    for (const auto& attachment : attachments) {
      replica.add_interface(attachment.interface);
    }
    inst.replicas.push_back(&replica);
  }

  // 2. The trusted half. The mesh gives each replica its port toward
  //    edge i as port i: the index the interface list relies on.
  const std::vector<PortAttachment> ports(attachments.begin(),
                                          attachments.end());
  static_cast<TrustedEdges&>(inst) = wire_trusted_edges(
      network, options, ports, name_prefix,
      [&inst](std::size_t j) -> device::Node& { return *inst.replicas[j]; });
  return inst;
}

}  // namespace netco::core
