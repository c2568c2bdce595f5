// Differential-testing layer for the sampled-verification fast path
// (§XII). Two anchors lock the mode down:
//
//  * sampling OFF is byte-for-byte the pre-§XII compare: short soaks must
//    reproduce golden stream hashes captured before the fast path
//    existed. A drift here means the refactor changed full-verification
//    behaviour, which it must not.
//
//  * sampling ON, benign traffic: the sampled run must deliver exactly
//    the same multiset of packets onto the same wires as the full-verify
//    run (order-independent egress_set_hash equality), with zero
//    duplicate egress — the fast path may change *when* a packet
//    releases, never *what* is released.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "faultinject/fault_plan.h"
#include "openflow/switch.h"
#include "scenario/circuit_driver.h"
#include "scenario/soak.h"
#include "scenario/soak_circuit.h"

namespace netco::scenario {
namespace {

// Golden stream hashes of the tier-1 smoke configurations, captured
// before the sampled fast path landed. These pin "sampling off ⇒ no
// behaviour change" at the strongest granularity we have: the FNV-1a of
// every canonical-JSON trace record in event order.
constexpr std::uint64_t kGoldenK3Majority = 0x185eeac979187253ULL;
constexpr std::uint64_t kGoldenK2FirstCopy = 0x792f19c6d8bdabc4ULL;
constexpr std::uint64_t kGoldenK3Health = 0x3e1e67be7af87240ULL;
constexpr std::uint64_t kGoldenK5Benign = 0xa5aa2967e409d7a7ULL;

SoakOptions faulted_options(int k, core::ReleasePolicy policy,
                            std::uint64_t seed) {
  SoakOptions options;
  options.k = k;
  options.policy = policy;
  options.seed = seed;
  options.packets = 2500;
  return options;
}

/// Benign k=5 run: health loop on, no fault plan. The one configuration
/// where full and sampled verification must be observationally identical
/// on the wire.
SoakOptions benign_options(bool sampled) {
  SoakOptions options;
  options.k = 5;
  options.policy = core::ReleasePolicy::kMajority;
  options.seed = 500;
  options.packets = 2500;
  options.health.enabled = true;
  options.inject_default_faults = false;
  options.sampling.enabled = sampled;
  return options;
}

TEST(CompareDifferential, FullVerifyReproducesGoldenStreamHashes) {
  const SoakResult k3 = run_soak(
      faulted_options(3, core::ReleasePolicy::kMajority, 77));
  EXPECT_TRUE(k3.ok());
  EXPECT_EQ(k3.stream_hash, kGoldenK3Majority)
      << "k3-majority full-verify trace stream drifted from its golden";

  const SoakResult k2 = run_soak(
      faulted_options(2, core::ReleasePolicy::kFirstCopy, 101));
  EXPECT_TRUE(k2.ok());
  EXPECT_EQ(k2.stream_hash, kGoldenK2FirstCopy)
      << "k2-firstcopy full-verify trace stream drifted from its golden";

  SoakOptions health = faulted_options(3, core::ReleasePolicy::kMajority, 77);
  health.health.enabled = true;
  const SoakResult k3h = run_soak(health);
  EXPECT_TRUE(k3h.ok());
  EXPECT_EQ(k3h.stream_hash, kGoldenK3Health)
      << "k3-health full-verify trace stream drifted from its golden";

  const SoakResult k5 = run_soak(benign_options(false));
  EXPECT_TRUE(k5.ok());
  EXPECT_EQ(k5.stream_hash, kGoldenK5Benign)
      << "benign k5 full-verify trace stream drifted from its golden";
}

TEST(CompareDifferential, BenignSampledEgressSetMatchesFullVerify) {
  const SoakResult full = run_soak(benign_options(false));
  const SoakResult sampled = run_soak(benign_options(true));

  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sampled.ok()) << "violations="
                            << sampled.invariants.violations;

  // The differential anchor: identical egress packet sets on identical
  // wires, regardless of release timing.
  EXPECT_EQ(sampled.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(sampled.compare_released, full.compare_released);
  EXPECT_EQ(sampled.delivered_unique, full.delivered_unique);

  // The fast path actually engaged (this is not a vacuous comparison)...
  EXPECT_GT(sampled.fastpath_released, 0u);
  EXPECT_GT(sampled.sampled_escalated, 0u);
  // ...and the full-verify run never touched it.
  EXPECT_EQ(full.fastpath_released, 0u);
  EXPECT_EQ(full.sampled_escalated, 0u);

  // At-most-once egress: the fast path and the escalated full compare
  // never both release the same packet.
  EXPECT_EQ(sampled.duplicate_egress, 0u);
}

TEST(CompareDifferential, SampledRunIsBitReproducible) {
  const SoakResult a = run_soak(benign_options(true));
  const SoakResult b = run_soak(benign_options(true));
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.egress_set_hash, b.egress_set_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fastpath_released, b.fastpath_released);
  EXPECT_EQ(a.sampled_escalated, b.sampled_escalated);
}

TEST(CompareDifferential, ProtocolOnlyTraceKeepsInvariantsAndEgress) {
  // The bench's perf pair feeds the checker protocol records only; the
  // thinned stream must lose narration, never protocol coverage — same
  // egress set, same release count, invariants and the duplicate check
  // still armed.
  SoakOptions lean = benign_options(true);
  lean.protocol_trace_only = true;
  const SoakResult thin = run_soak(lean);
  const SoakResult full = run_soak(benign_options(true));

  ASSERT_TRUE(thin.ok()) << "violations=" << thin.invariants.violations;
  EXPECT_LT(thin.trace_records, full.trace_records);
  EXPECT_GT(thin.invariants.checks, 0u);
  EXPECT_EQ(thin.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(thin.compare_released, full.compare_released);
  EXPECT_EQ(thin.duplicate_egress, 0u);
}

TEST(CompareDifferential, PeriodOneEscalatesEverything) {
  // period=1 is the degenerate sampled mode: every packet is elected for
  // the full compare, so nothing ever releases on the fast path and the
  // wire still carries exactly the full-verify egress set.
  SoakOptions options = benign_options(true);
  options.sampling.period = 1;
  const SoakResult degenerate = run_soak(options);
  const SoakResult full = run_soak(benign_options(false));

  ASSERT_TRUE(degenerate.ok());
  EXPECT_EQ(degenerate.fastpath_released, 0u);
  EXPECT_EQ(degenerate.sampled_escalated, degenerate.compare_released);
  EXPECT_EQ(degenerate.egress_set_hash, full.egress_set_hash);
  EXPECT_EQ(degenerate.compare_released, full.compare_released);
}

// --- Merged link arrival + switch pipeline -----------------------------------
// Links deliver into an OpenFlow switch with one event at arrival +
// processing_delay (DESIGN §9, "Events per datagram"). That event takes
// its seq when the frame is sent instead of when it arrives, so events at
// the same nanosecond may run in another order. An armed ingress tap
// forces the two-event arrival-time delivery, which is how these tests
// build the reference run: a no-op tap on every switch of the circuit.
// Every record whose (time, event, packet_id) no other record of its run
// shares must come out of both runs; the tied ones, whose order and
// replica fields the tie order decides, are only counted.

/// Records every trace record, then forwards it to the circuit's sink.
class RecordingSink final : public obs::TraceSink {
 public:
  explicit RecordingSink(obs::TraceSink& downstream)
      : downstream_(downstream) {}
  void append(const obs::TraceRecord& record) override {
    records.push_back(record);
    downstream_.append(record);
  }
  std::vector<obs::TraceRecord> records;

 private:
  obs::TraceSink& downstream_;
};

struct RecordedRun {
  SoakResult result;
  std::vector<obs::TraceRecord> records;
};

/// run_soak(options), with every record kept, optionally with a no-op
/// ingress tap on every OpenFlow switch (arrival-time delivery).
RecordedRun run_recorded(const SoakOptions& options, bool arrival_time) {
  obs::global().metrics.reset();
  SoakCircuit circuit(options);
  std::size_t tapped = 0;
  if (arrival_time) {
    for (const auto& node : circuit.topology().network().nodes()) {
      if (auto* sw = dynamic_cast<openflow::OpenFlowSwitch*>(node.get())) {
        sw->set_ingress_tap([](device::PortIndex, const net::Packet&) {});
        EXPECT_FALSE(sw->merged_ingress_delay().has_value());
        ++tapped;
      }
    }
    EXPECT_GT(tapped, 0u);
  }
  RecordingSink sink(circuit.trace_sink());
  obs::ScopedTraceSink scoped(sink);
  sim::TimePoint cap = circuit.start();
  while (cap != SoakCircuit::done_marker()) {
    circuit.simulator().run_until(cap);
    cap = circuit.on_window(cap);
  }
  circuit.finalize();
  return RecordedRun{circuit.take_result(), std::move(sink.records)};
}

using RecordKey = std::tuple<std::int64_t, obs::TraceEvent, std::uint64_t>;

RecordKey key_of(const obs::TraceRecord& r) {
  return {r.at_ns, r.event, r.packet_id};
}

/// The rendered lines of the records whose (time, event, packet_id) no
/// other record of the run shares, sorted.
std::vector<std::string> untied_lines(const std::vector<obs::TraceRecord>& rs,
                                      std::size_t* tied) {
  std::map<RecordKey, int> count;
  for (const auto& r : rs) ++count[key_of(r)];
  std::vector<std::string> lines;
  std::string buffer;
  *tied = 0;
  for (const auto& r : rs) {
    if (count[key_of(r)] > 1) {
      ++*tied;
      continue;
    }
    lines.emplace_back(obs::render_jsonl(r, buffer));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Asserts the merged and the arrival-time run agree record for record
/// outside the ties; returns whether their stream hashes differ (whether
/// some tie came out in another order).
bool expect_same_untied_records(const SoakOptions& options,
                                const std::string& name) {
  const RecordedRun merged = run_recorded(options, false);
  const RecordedRun reference = run_recorded(options, true);
  EXPECT_TRUE(merged.result.ok()) << name;
  EXPECT_TRUE(reference.result.ok()) << name;
  EXPECT_EQ(merged.records.size(), reference.records.size()) << name;
  std::size_t merged_tied = 0;
  std::size_t reference_tied = 0;
  const auto a = untied_lines(merged.records, &merged_tied);
  const auto b = untied_lines(reference.records, &reference_tied);
  EXPECT_GT(a.size(), 0u) << name;
  EXPECT_EQ(merged_tied, reference_tied) << name;
  std::vector<std::string> only_merged;
  std::vector<std::string> only_reference;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_merged));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_reference));
  EXPECT_TRUE(only_merged.empty() && only_reference.empty())
      << name << ": " << only_merged.size() << " untied records only in the "
      << "merged run, " << only_reference.size() << " only in the reference"
      << (only_merged.empty() ? std::string() : "; first: " + only_merged[0]);
  return merged.result.stream_hash != reference.result.stream_hash;
}

TEST(MergedIngressDifferential, GoldenConfigsMatchArrivalTimeDelivery) {
  // No tie comes out in another order in these runs, so the whole
  // streams agree; FullVerifyReproducesGoldenStreamHashes pins them.
  SoakOptions health = faulted_options(3, core::ReleasePolicy::kMajority, 77);
  health.health.enabled = true;
  const std::pair<SoakOptions, const char*> configs[] = {
      {faulted_options(3, core::ReleasePolicy::kMajority, 77), "k3-majority"},
      {faulted_options(2, core::ReleasePolicy::kFirstCopy, 101),
       "k2-firstcopy"},
      {health, "k3-health"},
      {benign_options(false), "k5-benign"},
      {benign_options(true), "k5-benign-sampled"},
  };
  for (const auto& [options, name] : configs) {
    EXPECT_FALSE(expect_same_untied_records(options, name))
        << name << ": stream hash moved";
  }
}

TEST(MergedIngressDifferential, FlashCrowdFleetMatchesArrivalTimeDelivery) {
  // perfbench's fleet-flash shape (k=3, 600 flash-crowd sessions/s, the
  // fault plan drawn from its plan seed for the arrival phase), with 1 s
  // of arrivals and 4 circuits, compared circuit by circuit: a fleet's
  // per-circuit stream is its solo run with circuit_seed() (see
  // scenario/circuit_driver.h), and a solo circuit can be instrumented.
  //
  // Over longer runs a reordered tie can also change what happens next:
  // two packet-ins reaching the compare at one nanosecond are served in
  // the other order, or a link-loss draw takes another value of the
  // shared simulator RNG. From there on the runs differ in untied
  // records too (3 of fleet-flash's 8 circuits at 4 s); such runs show up
  // as a moved stream hash and as seed-to-seed spread in the SLOs, not as
  // a bias.
  SoakOptions base;
  base.k = 3;
  base.seed = 0xF10F10;
  base.workload.enabled = true;
  base.workload.scenario = workload::Scenario::kFlashCrowd;
  base.workload.session_arrivals_per_sec = 600.0;
  base.workload.duration = sim::Duration::seconds(1);
  faultinject::FaultPlanParams params;
  params.k = base.k;
  params.horizon = base.workload.duration;
  params.start = sim::Duration::milliseconds(100);
  base.plan = faultinject::FaultPlan::random(
      0xF10F10 ^ static_cast<std::uint64_t>(workload::Scenario::kFlashCrowd)
                     << 8 ^
          600,
      params);
  std::size_t reordered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    SoakOptions options = base;
    options.seed = circuit_seed(base.seed, i);
    reordered += expect_same_untied_records(
        options, "flash circuit " + std::to_string(i));
  }
  // Not vacuous: some circuit's ties did come out in another order.
  EXPECT_GT(reordered, 0u);
}

}  // namespace
}  // namespace netco::scenario
