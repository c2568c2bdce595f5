#include "netco/combiner.h"

#include <utility>

#include "common/assert.h"
#include "common/fmt.h"
#include "controller/static_routing.h"

namespace netco::core {

std::vector<openflow::SwitchProfile> default_replica_profiles() {
  // Three "vendors" (think: different manufacturers/countries) with
  // slightly different ASIC latencies — harmless skew that exercises the
  // compare's reordering tolerance.
  return {
      openflow::SwitchProfile{.vendor = "vendor-a",
                              .processing_delay =
                                  sim::Duration::microseconds(15)},
      openflow::SwitchProfile{.vendor = "vendor-b",
                              .processing_delay =
                                  sim::Duration::nanoseconds(16500)},
      openflow::SwitchProfile{.vendor = "vendor-c",
                              .processing_delay =
                                  sim::Duration::nanoseconds(13800)},
  };
}

void CombinerInstance::install_replica_route(const net::MacAddress& mac,
                                             std::size_t idx) {
  NETCO_ASSERT(idx < edges.size());
  for (std::size_t j = 0; j < replicas.size(); ++j) {
    controller::install_mac_route(*replicas[j], mac, replica_edge_port[j][idx]);
  }
}

namespace {

/// Installs "dl_dst=ff:ff:ff:ff:ff:ff → FLOOD" (ARP and other broadcast
/// traffic crosses the replicas like any switch would forward it).
void install_broadcast_flood(openflow::OpenFlowSwitch& sw) {
  openflow::FlowSpec spec;
  spec.match.with_dl_dst(net::MacAddress::broadcast());
  spec.actions = {openflow::OutputAction::flood()};
  spec.priority = 5;
  sw.table().add(std::move(spec), sw.simulator().now());
}

}  // namespace

CombinerInstance build_combiner(device::Network& network,
                                const CombinerOptions& options,
                                const std::vector<PortAttachment>& attachments,
                                const std::string& name_prefix) {
  NETCO_ASSERT(options.k >= 2);
  const auto k = static_cast<std::size_t>(options.k);

  CombinerInstance inst;
  const auto profiles = options.replica_profiles.empty()
                            ? default_replica_profiles()
                            : options.replica_profiles;

  // 1. The k untrusted replicas (with standard broadcast flooding).
  for (std::size_t j = 0; j < k; ++j) {
    auto& replica = network.add_node<openflow::OpenFlowSwitch>(
        fmt("{}-r{}", name_prefix, j), profiles[j % profiles.size()]);
    install_broadcast_flood(replica);
    inst.replicas.push_back(&replica);
  }

  // 2. The trusted half around them.
  static_cast<TrustedEdges&>(inst) = wire_trusted_edges(
      network, options, attachments, name_prefix,
      [&inst](std::size_t j) -> device::Node& { return *inst.replicas[j]; });
  return inst;
}

TrustedEdges wire_trusted_edges(
    device::Network& network, const CombinerOptions& options,
    const std::vector<PortAttachment>& attachments,
    const std::string& name_prefix,
    const std::function<device::Node&(std::size_t)>& replica) {
  NETCO_ASSERT(options.k >= 2);
  NETCO_ASSERT(!attachments.empty());
  const auto& detection = options.detection;
  if (detection) {
    NETCO_ASSERT_MSG(options.combine,
                     "sampling detection needs the compare: combine=false "
                     "(the Dup reduction) has none");
    NETCO_ASSERT_MSG(!options.compare.sampling.enabled,
                     "sampling detection and compare.sampling.enabled both "
                     "tap the edge's replica traffic: enable one");
    NETCO_ASSERT_MSG(detection->primary_replica >= 0 &&
                         detection->primary_replica < options.k,
                     "sampling detection: primary_replica outside [0, k)");
  }
  const auto k = static_cast<std::size_t>(options.k);
  const std::size_t n = attachments.size();

  TrustedEdges inst;

  // 1. One trusted edge per attachment, spliced to the neighbor.
  const openflow::SwitchProfile edge_profile{
      .vendor = "trusted-edge", .processing_delay = options.edge_delay};
  inst.edge_replica_port.resize(n);
  inst.replica_edge_port.resize(k);
  for (std::size_t i = 0; i < n; ++i) {
    auto& edge = network.add_node<openflow::OpenFlowSwitch>(
        fmt("{}-e{}", name_prefix, i), edge_profile);
    inst.edges.push_back(&edge);

    const auto conn =
        network.connect(*attachments[i].neighbor, edge, attachments[i].link);
    inst.edge_neighbor_port.push_back(conn.b_port);
    inst.neighbor_port.push_back(conn.a_port);
  }

  // 2. Full mesh edge ↔ replica.
  inst.edge_replica_link.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const auto conn =
          network.connect(*inst.edges[i], replica(j), options.internal_link);
      inst.edge_replica_port[i].push_back(conn.a_port);
      inst.replica_edge_port[j].push_back(conn.b_port);
      inst.edge_replica_link[i].push_back(conn.link);
    }
  }

  // 3. Compare process (unless this is a Dup reduction).
  if (options.combine) {
    inst.compare = std::make_unique<CompareService>();
    inst.compare_controller = std::make_unique<controller::Controller>(
        network.simulator(), fmt("{}-compare", name_prefix), *inst.compare,
        options.compare_profile);
  }

  // 4. Rules on each edge.
  for (std::size_t i = 0; i < n; ++i) {
    auto& edge = *inst.edges[i];
    const auto now = network.simulator().now();

    // Hub: every packet from the neighbor is copied to all k replicas.
    {
      openflow::FlowSpec spec;
      spec.match.with_in_port(inst.edge_neighbor_port[i]);
      for (std::size_t j = 0; j < k; ++j) {
        spec.actions.push_back(
            openflow::OutputAction::to(inst.edge_replica_port[i][j]));
      }
      spec.priority = 30;
      edge.table().add(std::move(spec), now);
    }

    // Broadcast (ARP who-has): released broadcast frames go out to this
    // edge's neighbor like any other frame.
    {
      openflow::FlowSpec bcast;
      bcast.match.with_dl_dst(net::MacAddress::broadcast());
      bcast.actions = {
          openflow::OutputAction::to(inst.edge_neighbor_port[i])};
      bcast.priority = 10;
      edge.table().add(std::move(bcast), now);
    }

    // MAC forwarding toward the neighbor (used by released packets via
    // packet-out OFPP_TABLE, and by the Dup reduction directly).
    for (const auto& mac : attachments[i].local_macs) {
      openflow::FlowSpec spec;
      spec.match.with_dl_dst(mac);
      spec.actions = {
          openflow::OutputAction::to(inst.edge_neighbor_port[i])};
      spec.priority = 10;
      edge.table().add(std::move(spec), now);
    }

    if (!options.combine) continue;  // Dup: replicas' output falls through
                                     // to the dl_dst rules above

    // Compare feeding with anti-spoof screening: a packet arriving from a
    // replica may only carry a source MAC that does NOT live on this
    // edge's own side (it must have entered the combiner elsewhere).
    CompareService::EdgeConfig edge_config;
    edge_config.compare = options.compare;
    edge_config.compare.k = options.k;
    edge_config.block_duration = options.block_duration;
    if (detection) {
      // Detection, not prevention: the data plane already forwarded the
      // primary's copy, so the compare only checks and alarms.
      edge_config.compare.policy = ReleasePolicy::kFirstCopy;
      edge_config.verify_only = true;
    }

    for (std::size_t j = 0; j < k; ++j) {
      const device::PortIndex rp = inst.edge_replica_port[i][j];
      edge_config.replica_ports[rp] = static_cast<int>(j);

      // Screen: this edge's own MACs coming back from a replica = spoof.
      for (const auto& mac : attachments[i].local_macs) {
        openflow::FlowSpec drop;
        drop.match.with_in_port(rp).with_dl_src(mac);
        drop.actions = {};  // drop
        drop.priority = 25;
        edge.table().add(std::move(drop), now);
      }
      // Everything else from a replica goes to the compare.
      openflow::FlowSpec punt;
      punt.match.with_in_port(rp);
      punt.actions = {openflow::OutputAction::controller()};
      punt.priority = 20;
      edge.table().add(std::move(punt), now);
    }

    // Sampling detection (§IX): the trusted tap takes every replica copy
    // ahead of the table, so the punt path above is never reached — it
    // forwards the primary's copy and escalates a content-sampled subset.
    if (detection) {
      inst.detection_taps.push_back(std::make_unique<SamplingEdgeLogic>(
          SamplingEdgeLogic::Config{
              .replica_ports = edge_config.replica_ports,
              .primary_replica = detection->primary_replica,
              .neighbor_port = inst.edge_neighbor_port[i],
              .sample_rate = detection->sample_rate},
          &edge));
      edge.set_interceptor(inst.detection_taps.back().get());
    }

    // Sampled-verification fast path (§XII): replica copies short-circuit
    // the packet-in round trip via a trusted edge tap; only the 1-in-N
    // elected packets take the classic punt rules installed above.
    FastPathTap::Config tap_config;
    if (options.compare.sampling.enabled) {
      tap_config.replica_ports = edge_config.replica_ports;
      tap_config.local_macs = attachments[i].local_macs;
    }

    inst.compare->configure_edge(edge.name(), std::move(edge_config));
    inst.compare_controller->attach(edge);

    if (options.compare.sampling.enabled) {
      inst.fastpath_taps.push_back(std::make_unique<FastPathTap>(
          std::move(tap_config), inst.compare->core_for(edge.name()), &edge));
      edge.set_interceptor(inst.fastpath_taps.back().get());
    }
  }

  return inst;
}

}  // namespace netco::core
