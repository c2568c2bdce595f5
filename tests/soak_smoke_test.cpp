// Tier-1 smoke for the soak harness: a short fault-injected run must
// complete with zero invariant violations and reproduce bit-identically
// under the same seed. The full-length version lives in bench/soak_netco.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "scenario/soak.h"

namespace netco::scenario {
namespace {

SoakOptions smoke_options() {
  SoakOptions options;
  options.k = 3;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 77;
  options.packets = 2500;  // ~0.25 s of sim time at 16 Mbit/s / 200 B
  return options;
}

TEST(SoakSmoke, ShortRunHoldsInvariantsUnderFaults) {
  const SoakResult result = run_soak(smoke_options());
  EXPECT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  for (const auto& detail : result.invariants.details) {
    ADD_FAILURE() << detail;
  }
  EXPECT_GE(result.datagrams_sent, 2500u);
  EXPECT_GT(result.compare_released, 0u);
  EXPECT_GT(result.fault_events_applied, 0u);  // the plan actually ran
  EXPECT_GT(result.audits, 0u);
  EXPECT_GT(result.invariants.checks, 0u);
}

TEST(SoakSmoke, SameSeedIsBitReproducible) {
  const SoakResult a = run_soak(smoke_options());
  const SoakResult b = run_soak(smoke_options());
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
}

TEST(SoakSmoke, SameSeedIsBitReproducibleK2FirstCopy) {
  SoakOptions options = smoke_options();
  options.k = 2;
  options.policy = core::ReleasePolicy::kFirstCopy;
  options.seed = 101;
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_TRUE(a.ok()) << "violations=" << a.invariants.violations;
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
}

TEST(SoakSmoke, HealthLoopRunIsBitReproducible) {
  SoakOptions options = smoke_options();
  options.health.enabled = true;
  const SoakResult a = run_soak(options);
  const SoakResult b = run_soak(options);
  EXPECT_TRUE(a.ok()) << "violations=" << a.invariants.violations;
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.compare_released, b.compare_released);
  // Health outcomes are part of the determinism contract too.
  EXPECT_EQ(a.health_quarantines, b.health_quarantines);
  EXPECT_EQ(a.health_readmits, b.health_readmits);
  EXPECT_EQ(a.health_bans, b.health_bans);
  EXPECT_EQ(a.health_probe_windows, b.health_probe_windows);
  EXPECT_EQ(a.first_quarantine_ns, b.first_quarantine_ns);
  EXPECT_EQ(a.first_readmit_ns, b.first_readmit_ns);
}

// Configuration validation happens at harness construction, with full
// context, instead of surfacing later as silent vote drops.
TEST(SoakSmokeDeathTest, RejectsOversizedFleet) {
  SoakOptions options = smoke_options();
  options.k = 64;
  EXPECT_DEATH(run_soak(options), "SoakOptions.k out of range");
}

// A plan event addressing replica k would index past the combiner's
// replica tables; arming the plan must stop the run and name the event.
TEST(SoakSmokeDeathTest, RejectsOutOfRangePlanReplica) {
  SoakOptions options = smoke_options();
  faultinject::FaultEvent event;
  event.at_ns = sim::Duration::milliseconds(10).ns();
  event.kind = faultinject::FaultKind::kLinkDown;
  event.replica = options.k;
  options.plan.events.push_back(event);
  EXPECT_DEATH(run_soak(options),
               "fault plan event 0 \\(link.down\\): replica 3 outside "
               "\\[0, 3\\)");
}

TEST(SoakSmokeDeathTest, RejectsEmptyRun) {
  SoakOptions options = smoke_options();
  options.packets = 0;
  EXPECT_DEATH(run_soak(options), "NETCO_ASSERT failed");
}

/// Reads counter `name` from a metrics snapshot ({"counters":{...}}); 0
/// when absent (the snapshot leaves zero counters out).
std::uint64_t counter_in(const std::string& metrics_json,
                         const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = metrics_json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(metrics_json.c_str() + at + key.size(), nullptr, 10);
}

TEST(SoakSmoke, QuickK5SampledStaysWithinItsEventBudget) {
  // soak_netco's k5-sampled under NETCO_BENCH_QUICK: 10k datagrams, the
  // sampled fast path, one corrupt swap of replica 2 at 20% of the run,
  // honest again at 60%. The event count is exact, so this guard cannot
  // flake; it fails when a change brings back per-hop events (a
  // transmit-done event per frame, or a separate link-arrival and
  // pipeline event per switch hop). Measured: 15.27 events per datagram.
  SoakOptions options;
  options.k = 5;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 0xDECAFBAD ^ 5;
  options.packets = 10'000;
  options.rate = DataRate::megabits_per_sec(10);
  options.health.enabled = true;
  options.sampling.enabled = true;
  options.protocol_trace_only = true;
  // The horizon is the packet budget at the offered rate: 1.6 s.
  const std::int64_t horizon_ns =
      static_cast<std::int64_t>(options.packets * options.payload_bytes * 8 *
                                1'000'000'000ULL / options.rate.bps());
  options.plan.events.push_back(faultinject::FaultEvent{
      .at_ns = horizon_ns / 5,
      .kind = faultinject::FaultKind::kBehaviorSwap,
      .replica = 2,
      .behavior = faultinject::SwapBehavior::kCorrupt});
  options.plan.events.push_back(faultinject::FaultEvent{
      .at_ns = horizon_ns * 3 / 5,
      .kind = faultinject::FaultKind::kBehaviorSwap,
      .replica = 2,
      .behavior = faultinject::SwapBehavior::kHonest});

  const SoakResult result = run_soak(options);
  ASSERT_TRUE(result.ok()) << "violations=" << result.invariants.violations;
  ASSERT_GT(result.datagrams_sent, 0u);
  const double events_per_datagram =
      static_cast<double>(
          counter_in(result.metrics_json, "sim.events_executed")) /
      static_cast<double>(result.datagrams_sent);
  EXPECT_GT(events_per_datagram, 1.0);  // the counter was found
  EXPECT_LE(events_per_datagram, 15.5);
}

}  // namespace
}  // namespace netco::scenario
