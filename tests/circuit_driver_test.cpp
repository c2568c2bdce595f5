// The fleet contract of scenario/circuit_driver.h, checked once for every
// circuit kind: in a 3-circuit fleet on 2 shards, circuit i must
// reproduce the solo run at hash_mix(seed, i), and the merged hash must
// be the documented fold over circuit order. The suite-name prefix
// (CircuitDriver) is load-bearing: the tsan CMake preset selects it to
// race-check run_fleet for each circuit type.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "scenario/convergence.h"
#include "scenario/failover.h"
#include "scenario/sharded_soak.h"
#include "scenario/soak.h"
#include "scenario/workload.h"

namespace netco::scenario {
namespace {

constexpr std::size_t kCircuits = 3;
constexpr int kShards = 2;

/// One fleet run reduced to what the contract talks about.
struct FleetHashes {
  std::vector<std::uint64_t> circuits;
  std::uint64_t merged = 0;
};

struct CircuitKind {
  std::string name;
  std::uint64_t seed = 0;
  /// Stream hash of a solo run at `seed`.
  std::function<std::uint64_t(std::uint64_t seed)> solo;
  /// kCircuits circuits on kShards workers from a template at `seed`.
  std::function<FleetHashes(std::uint64_t seed)> fleet;
};

void PrintTo(const CircuitKind& kind, std::ostream* os) { *os << kind.name; }

template <class R>
FleetHashes hashes_of(const FleetResult<R>& fleet) {
  FleetHashes out;
  for (const R& r : fleet.circuits) out.circuits.push_back(r.stream_hash);
  out.merged = fleet.merged_stream_hash;
  return out;
}

SoakOptions soak_options(std::uint64_t seed) {
  SoakOptions options;
  options.k = 3;
  options.seed = seed;
  options.packets = 1500;
  return options;
}

SoakOptions workload_options(std::uint64_t seed) {
  SoakOptions options;
  options.k = 3;
  options.seed = seed;
  options.workload.enabled = true;
  options.workload.duration = sim::Duration::milliseconds(200);
  options.workload.session_arrivals_per_sec = 120.0;
  options.workload.flow_max_packets = 64;
  options.workload.pool_capacity = 1024;
  options.workload.active_cap = 64;
  return options;
}

ShardedSoakOptions soak_fleet(const SoakOptions& base) {
  ShardedSoakOptions fleet;
  fleet.base = base;
  fleet.circuits = kCircuits;
  fleet.shards = kShards;
  return fleet;
}

ConvergenceOptions convergence_options(std::uint64_t seed) {
  ConvergenceOptions options;
  options.seed = seed;
  options.liars = 1;
  options.horizon = sim::Duration::milliseconds(600);
  return options;
}

FailoverOptions failover_options(std::uint64_t seed) {
  FailoverOptions options;
  options.seed = seed;
  options.link_cuts = 1;
  options.fail_at = sim::Duration::milliseconds(100);
  options.horizon = sim::Duration::milliseconds(250);
  return options;
}

std::vector<CircuitKind> circuit_kinds() {
  return {
      {"soak", 77,
       [](std::uint64_t seed) {
         return run_soak(soak_options(seed)).stream_hash;
       },
       [](std::uint64_t seed) {
         return hashes_of(run_sharded_soak(soak_fleet(soak_options(seed))));
       }},
      {"workload", 4242,
       [](std::uint64_t seed) {
         return run_workload(workload_options(seed)).stream_hash;
       },
       [](std::uint64_t seed) {
         return hashes_of(
             run_workload_fleet(soak_fleet(workload_options(seed))));
       }},
      {"convergence", 7,
       [](std::uint64_t seed) {
         return run_convergence(convergence_options(seed)).stream_hash;
       },
       [](std::uint64_t seed) {
         return hashes_of(run_convergence_fleet(convergence_options(seed),
                                                kCircuits, kShards));
       }},
      {"failover", 1,
       [](std::uint64_t seed) {
         return run_failover(failover_options(seed)).stream_hash;
       },
       [](std::uint64_t seed) {
         return hashes_of(run_failover_fleet(failover_options(seed),
                                             kCircuits, kShards));
       }},
  };
}

class CircuitDriverFleet : public ::testing::TestWithParam<CircuitKind> {};

TEST_P(CircuitDriverFleet, CircuitsMatchSoloRunsAndMergeInOrder) {
  const CircuitKind& kind = GetParam();
  const FleetHashes fleet = kind.fleet(kind.seed);
  ASSERT_EQ(fleet.circuits.size(), kCircuits);

  // Circuit 0 keeps the template seed; circuit i > 0 runs hash_mix(seed, i).
  EXPECT_EQ(fleet.circuits[0], kind.solo(kind.seed));
  for (std::uint64_t i = 1; i < kCircuits; ++i) {
    EXPECT_EQ(fleet.circuits[i], kind.solo(hash_mix(kind.seed, i)))
        << "circuit " << i;
  }
  EXPECT_NE(fleet.circuits[0], fleet.circuits[1]) << "seeds not diversified";

  std::uint64_t folded = kFnvOffset;
  for (const std::uint64_t h : fleet.circuits) folded = hash_mix(folded, h);
  EXPECT_EQ(fleet.merged, folded);
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuitKinds, CircuitDriverFleet, ::testing::ValuesIn(circuit_kinds()),
    [](const ::testing::TestParamInfo<CircuitKind>& kind_info) {
      return kind_info.param.name;
    });

TEST(CircuitDriverFold, SingleCircuitHashPassesThrough) {
  const std::vector<std::uint64_t> one{0x1234};
  EXPECT_EQ(fold_circuit_hashes(one, [](std::uint64_t h) { return h; }),
            0x1234u);
  EXPECT_EQ(circuit_seed(99, 0), 99u);
  EXPECT_EQ(circuit_seed(99, 2), hash_mix(99, 2));
}

}  // namespace
}  // namespace netco::scenario
