// Sharded soak: a fleet of SoakCircuits run by scenario::run_fleet
// (scenario/circuit_driver.h describes the seed rule, the per-window trace
// sink, the hash fold and the worker-order metrics merge), plus the
// soak's own merges: the egress-hash fold and fleet-level counter sums.
//
// The soak fleet is the one that can wire the optional beacon ring
// (cross_shard_beacons): real link::Channel traffic over ShardChannels,
// trace-neutral by construction, that scales the cross-shard message
// count without perturbing any circuit's protocol stream.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/circuit_driver.h"
#include "scenario/soak.h"

namespace netco::scenario {

/// Parameters for a sharded fleet soak.
struct ShardedSoakOptions {
  /// Per-circuit template. Circuit 0 runs base.seed exactly (so a
  /// 1-circuit run reproduces run_soak(base)); circuit i>0 runs
  /// hash_mix(base.seed, i).
  SoakOptions base;
  /// Independent combiner circuits in the fleet.
  std::size_t circuits = 1;
  /// Worker threads (the "shards=N" knob). Never affects any hash.
  int shards = 1;
  /// Wire a beacon ring circuit i → (i+1) % circuits over cross-shard
  /// channels (ignored with a single circuit).
  bool cross_shard_beacons = false;
  /// Beacon send period per circuit while its sender phase lasts.
  sim::Duration beacon_period = sim::Duration::milliseconds(10);
};

/// The fleet's FleetResult (circuits, merged_stream_hash, rounds,
/// cross-shard and beacon counts, wall_seconds, merged metrics_json) plus
/// the soak-specific merges.
struct ShardedSoakResult : FleetResult<SoakResult> {
  /// fold_circuit_hashes over the per-circuit egress_set_hash.
  std::uint64_t merged_egress_hash = 0;

  // Fleet-level sums over circuits.
  std::uint64_t datagrams_sent = 0;
  std::uint64_t delivered_unique = 0;
  std::uint64_t compare_ingested = 0;
  std::uint64_t compare_released = 0;
  std::uint64_t duplicate_egress = 0;
  std::uint64_t fault_events_applied = 0;

  double wall_pps = 0.0;  ///< total offered datagrams / wall second

  /// True when every circuit's invariant verdict is clean.
  [[nodiscard]] bool ok() const noexcept {
    for (const SoakResult& r : circuits) {
      if (!r.invariants.ok()) return false;
    }
    return !circuits.empty();
  }
};

/// Runs the fleet. Same seed + same options ⇒ identical merged hashes for
/// every value of shards (including per-circuit stream equality with
/// run_soak for circuit 0). Leaves the caller's metrics registry alone.
ShardedSoakResult run_sharded_soak(const ShardedSoakOptions& options);

}  // namespace netco::scenario
