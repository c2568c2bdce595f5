// CombinerBuilder: assembles a robust network combiner (Fig. 2) around a
// router position in an existing Network.
//
// Every combiner is one circuit: k untrusted replicas and, per neighbor of
// the router position, one trusted edge around them. A build has two
// steps. The first creates the replicas; it is the only step that differs
// between combiner kinds. The second, wire_trusted_edges(), is shared by
// all of them and creates:
//   * one trusted edge switch per neighbor (hub + compare feeder + MAC
//     forwarding, all expressed as OF 1.0 rules — the paper's s1/s2);
//   * the edge ↔ replica mesh: each replica gets a port toward every edge;
//   * a compare process attached to all edges as an out-of-band
//     controller (CompareService on a Controller with the chosen cost
//     profile: c_program() for Central*, pox() for POX3);
//   * anti-spoof screening on the replica-facing edge ports ("ensuring
//     its ingress port number matches its MAC source address"): packets
//     from a replica whose source MAC lives on this edge's own side are
//     dropped.
//
// The combiners built on it:
//   * build_combiner: OpenFlow replicas. combine=false builds the paper's
//     Dup* reduction: packets are split but never combined — duplicates
//     flow straight through to the destination.
//   * build_combiner with options.detection set: §IX sampling detection.
//     The compare releases nothing (first-copy policy, verify-only); each
//     edge's SamplingEdgeLogic forwards the primary replica's copy at once
//     and escalates a content-sampled subset of all copies to the compare,
//     which raises mismatch alarms.
//   * build_legacy_combiner (legacy_combiner.h): the replicas are cloned
//     classic IPv4 routers, the paper conclusion's legacy extension.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "device/network.h"
#include "link/link.h"
#include "netco/compare_core.h"
#include "netco/compare_service.h"
#include "netco/fastpath.h"
#include "netco/sampling.h"
#include "openflow/switch.h"

namespace netco::core {

/// One neighbor of the router position being wrapped.
struct PortAttachment {
  device::Node* neighbor = nullptr;       ///< existing node to splice to
  link::LinkConfig link;                   ///< edge ↔ neighbor link
  /// MACs of hosts reachable *via this neighbor* (this edge's own side).
  std::vector<net::MacAddress> local_macs;
};

/// §IX sampling detection: what sets it apart from prevention.
struct SamplingDetection {
  /// Fraction of packets escalated to the compare, in [0, 1].
  double sample_rate = 0.05;
  /// Whose output is forwarded downstream unverified, in [0, k).
  int primary_replica = 0;
};

/// Combiner construction options.
struct CombinerOptions {
  int k = 3;  ///< number of redundant replicas
  /// Compare element configuration (k is overridden with the value above).
  CompareConfig compare;
  /// Compare process personality: c_program() → Central*, pox() → POX*.
  controller::CostProfile compare_profile =
      controller::CostProfile::c_program();
  /// Links between edges and replicas.
  link::LinkConfig internal_link;
  /// false → Dup reduction: split only, no compare, duplicates pass through.
  bool combine = true;
  /// Vendor personalities for the replicas (cycled if fewer than k) —
  /// the diversity assumption made concrete. Legacy replicas take only
  /// the processing delay.
  std::vector<openflow::SwitchProfile> replica_profiles;
  /// How long a flood-flagged replica port stays blocked (zero = forever).
  sim::Duration block_duration = sim::Duration::zero();
  /// Pipeline latency of the trusted edge switches (simple hardware).
  sim::Duration edge_delay = sim::Duration::microseconds(5);
  /// Set → §IX sampling detection instead of prevention (file comment).
  /// Needs combine and excludes compare.sampling (both claim the edge's
  /// replica traffic).
  std::optional<SamplingDetection> detection;
};

/// The trusted half of a built combiner: handles to everything
/// wire_trusted_edges() creates, for any kind of replica.
struct TrustedEdges {
  std::vector<openflow::OpenFlowSwitch*> edges;  ///< one per attachment

  /// Port of edges[i] toward its neighbor.
  std::vector<device::PortIndex> edge_neighbor_port;
  /// Port created on attachment i's neighbor, toward edges[i].
  std::vector<device::PortIndex> neighbor_port;
  /// Port of edges[i] toward replica j: edge_replica_port[i][j].
  std::vector<std::vector<device::PortIndex>> edge_replica_port;
  /// Port of replica j toward edges[i]: replica_edge_port[j][i].
  std::vector<std::vector<device::PortIndex>> replica_edge_port;
  /// The edge↔replica links: edge_replica_link[i][j] (failure injection).
  std::vector<std::vector<link::Link*>> edge_replica_link;

  /// The compare process (nullptr when combine == false).
  std::unique_ptr<controller::Controller> compare_controller;
  std::unique_ptr<CompareService> compare;

  /// Sampled-verification fast-path taps, one per edge (empty unless
  /// options.compare.sampling.enabled): replica traffic short-circuits
  /// the packet-in round trip through these (§XII).
  std::vector<std::unique_ptr<FastPathTap>> fastpath_taps;
  /// Sampling-detection taps, one per edge (empty unless
  /// options.detection is set, §IX).
  std::vector<std::unique_ptr<SamplingEdgeLogic>> detection_taps;
};

/// Handles to everything a built OpenFlow combiner consists of.
struct CombinerInstance : TrustedEdges {
  std::vector<openflow::OpenFlowSwitch*> replicas;  ///< k untrusted routers

  /// Shadow compare cores registered by a warm standby (src/resilience,
  /// one per edge; non-owning). The health subsystem mirrors every
  /// set_replica_live transition into these so a promoted standby starts
  /// with the same live set the primary had.
  std::vector<CompareCore*> shadow_cores;

  /// Installs "dl_dst=mac → toward attachment `idx`" into every replica —
  /// the routing the original router would have done.
  void install_replica_route(const net::MacAddress& mac, std::size_t idx);
};

/// Builds a combiner around a router position whose neighbors are
/// `attachments`. `name_prefix` namespaces the created node names
/// ("<prefix>-e0", "<prefix>-r1", ...). Replica routing must be installed
/// afterwards (install_replica_route or custom rules).
CombinerInstance build_combiner(device::Network& network,
                                const CombinerOptions& options,
                                const std::vector<PortAttachment>& attachments,
                                const std::string& name_prefix);

/// The second step of every combiner build: wires the trusted half around
/// the options.k replicas that already exist (`replica(j)` is replica j).
/// Creates, in this order, the edges with their neighbor links, the mesh
/// (edge-major), the compare process, and each edge's rules and tap. Port
/// numbers, and with them every stream hash, depend on that order.
TrustedEdges wire_trusted_edges(
    device::Network& network, const CombinerOptions& options,
    const std::vector<PortAttachment>& attachments,
    const std::string& name_prefix,
    const std::function<device::Node&(std::size_t)>& replica);

/// Default replica vendor personalities used when options don't override:
/// three distinct "vendors" with slightly different pipeline latencies.
std::vector<openflow::SwitchProfile> default_replica_profiles();

}  // namespace netco::core
