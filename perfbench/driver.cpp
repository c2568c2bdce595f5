// Benchmark driver: runs one named workload through the public scenario
// API for a wall-clock budget and prints one JSON object of raw
// measurements (per-repetition timings, counts, hashes, metrics
// snapshots). run.py turns that into the benchmark's metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]
//
// Plain mode (--trace 0) repeats the workload untraced and times it from
// outside. A soak repetition runs its circuit once, after one untimed
// traced repetition that reads the soak's stream completion time from
// its sink; a host probe runs before the first soak repetition and after
// each. A fleet repetition is one run_workload_fleet call, after an
// untimed pass that drives its circuits alone to read their
// flow-completion times at full resolution. Traced mode (--trace 1)
// alternates untraced and traced repetitions of one circuit. A traced
// repetition puts spans around every call the driver makes into the
// library (construction, start, each simulation window, each
// between-window audit, finalize) and times the invariant checker
// through a TraceSink placed in front of the circuit's own sink, so no
// tracing runs inside the library. Spans stay in memory and are written
// to --spans once, at exit.
//
// Every repetition must reproduce the reference run (scenario::run_soak
// on the same options) bit for bit: same stream hash, same metrics
// snapshot. The output carries the hashes; run.py fails the run on any
// mismatch.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <malloc.h>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "obs/observability.h"
#include "scenario/sharded_soak.h"
#include "scenario/soak.h"
#include "scenario/soak_circuit.h"
#include "scenario/workload.h"

namespace {

using namespace netco;
using Clock = std::chrono::steady_clock;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident memory is measured per repetition: the high-water mark
/// (VmHWM) is reset before a repetition and read after it. getrusage's
/// ru_maxrss cannot be reset, and on Linux it keeps the peak of the image
/// the process replaced at exec, here the Python parent's. The heap that
/// earlier repetitions and host probes freed is handed back first, so the
/// reset starts from what is still in use: a probe's freed hash table
/// alone moved soak-k5-verify's peak by up to 15%.
void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// ---------------------------------------------------------------------------
// Host-speed probe.
//
// On a shared virtual machine the same repetition runs up to 40% slower
// in some minutes than in others, with user CPU equal to wall time: the
// neighbours contend for the host's caches and memory. The driver times a
// fixed piece of work between measured repetitions, and run.py scales each
// repetition's times by the probes on either side of it. The probe is
// shaped like the simulator's inner loop (a binary heap of timed events
// and a hash table of a few MB updated as they fire) because contention
// slows memory-bound code far more than arithmetic. It shares no code with
// the library, so no change to the program moves it.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Keeps the probe's result observable, so its work is not optimized out.
volatile std::uint64_t probe_sink = 0;

/// Wall time of one fixed probe, its set-up and tear-down included.
std::int64_t host_probe_ns() {
  constexpr std::uint32_t kEvents = 1u << 16;
  constexpr std::uint64_t kSlots = 1u << 18;
  constexpr std::uint64_t kSpread = 1'000'000;
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const std::int64_t t0 = wall_ns();
  {
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    table.reserve(kSlots);
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      events.emplace(splitmix(i) % kSpread, i);
    }
    std::uint64_t now = 0;
    for (int i = 0; i < 800'000; ++i) {
      const auto [at, id] = events.top();
      events.pop();
      now = at;
      const std::uint64_t h = splitmix(id + now);
      table[h & (kSlots - 1)] += at;
      events.emplace(now + 1 + h % kSpread, id);
    }
    probe_sink = now + table.size();
  }
  return wall_ns() - t0;
}

// ---------------------------------------------------------------------------
// Workloads. The library sees only the options built here from the seed.
//
// The seed drives every random draw of the simulation (loss coin flips,
// flow arrivals and sizes, ...). The fault schedule is part of the
// workload instead: each workload draws its plan once, from
// a fixed plan seed, with the generator and parameters SoakCircuit uses
// for its default plan. With the plan redrawn per seed, the sim-time
// results (verdict p99, goodput) spread by more than any usable bound
// across seeds, because they follow the fault schedule, not the seed.

constexpr std::size_t kFleetCircuits = 8;
/// Set-up samples taken before each untraced repetition, so that they
/// spread over the run like the repetitions do; the benchmark reports
/// their median.
constexpr int kSetupSamplesPerRep = 5;
/// soak_netco's k5 seed: with --seed equal to it, soak-k5-verify is
/// exactly soak_netco's k5-health configuration.
constexpr std::uint64_t kVerifyPlanSeed = 0xDECAFBADULL ^ 5;
/// The seed workload_slo gives its flash-crowd point at 600 sessions/s,
/// whose plan it draws from that seed. workload_slo runs 2 s of arrivals;
/// the plan here is drawn for this workload's 4 s.
constexpr std::uint64_t kFleetPlanSeed =
    0xF10F10 ^ static_cast<std::uint64_t>(workload::Scenario::kFlashCrowd)
                   << 8 ^
    600;

/// SoakCircuit's expected run length: the arrival phase in workload mode,
/// else the packet budget at the offered rate.
sim::Duration horizon(const scenario::SoakOptions& options) {
  if (options.workload.enabled) return options.workload.duration;
  const double pps = static_cast<double>(options.rate.bps()) /
                     (static_cast<double>(options.payload_bytes) * 8.0);
  return sim::Duration::seconds_f(static_cast<double>(options.packets) / pps);
}

/// SoakCircuit's default plan for `options`, drawn from `plan_seed`.
faultinject::FaultPlan default_plan(const scenario::SoakOptions& options,
                                    std::uint64_t plan_seed) {
  faultinject::FaultPlanParams params;
  params.k = options.k;
  params.horizon = horizon(options);
  params.start = std::min(
      params.start, sim::Duration::nanoseconds(params.horizon.ns() / 5));
  return faultinject::FaultPlan::random(plan_seed, params);
}

/// soak_netco's single corrupt swap of replica 2, handed back honest two
/// fifths of the horizon later. soak_netco swaps at exactly 20% of the
/// horizon; here the seed draws the swap time from [20%, 20.2%). This
/// plan injects no loss, so nothing else the seed drives reaches the
/// sampled circuit: with a fixed swap every seed would give the same run.
/// The window is narrow because verdict p99 follows the swap's phase: a
/// 2% window spread it by 0.14 (IQR/median) over five seeds, 0.2% by
/// under 0.05.
faultinject::FaultPlan single_swap_plan(std::int64_t horizon_ns,
                                        std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t swap_ns =
      rng.uniform_i64(horizon_ns / 5, horizon_ns / 5 + horizon_ns / 500 - 1);
  faultinject::FaultPlan plan;
  plan.events.push_back(
      faultinject::FaultEvent{.at_ns = swap_ns,
                              .kind = faultinject::FaultKind::kBehaviorSwap,
                              .replica = 2,
                              .behavior = faultinject::SwapBehavior::kCorrupt});
  plan.events.push_back(
      faultinject::FaultEvent{.at_ns = swap_ns + horizon_ns * 2 / 5,
                              .kind = faultinject::FaultKind::kBehaviorSwap,
                              .replica = 2,
                              .behavior = faultinject::SwapBehavior::kHonest});
  return plan;
}

/// soak_netco's k5-health: full verification under the random plan.
scenario::SoakOptions soak_k5_verify(std::uint64_t seed) {
  scenario::SoakOptions o;
  o.k = 5;
  o.policy = core::ReleasePolicy::kMajority;
  o.seed = seed;
  o.packets = 120'000;
  o.payload_bytes = 200;
  o.rate = DataRate::megabits_per_sec(10);
  o.health.enabled = true;
  o.plan = default_plan(o, kVerifyPlanSeed);
  return o;
}

/// soak_netco's k5-sampled: the sampled fast path, protocol records only,
/// one swap.
scenario::SoakOptions soak_k5_sampled(std::uint64_t seed) {
  scenario::SoakOptions o = soak_k5_verify(seed);
  o.packets = 300'000;
  o.sampling.enabled = true;
  o.protocol_trace_only = true;
  o.plan = single_swap_plan(horizon(o).ns(), seed);
  return o;
}

int fleet_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// Eight k=3 flash-crowd workload circuits, all under one random plan,
/// with the cross-shard beacon ring on so the shard channels carry
/// traffic.
scenario::ShardedSoakOptions fleet_flash(std::uint64_t seed) {
  scenario::ShardedSoakOptions f;
  f.base.k = 3;
  f.base.seed = seed;
  f.base.workload.enabled = true;
  f.base.workload.scenario = workload::Scenario::kFlashCrowd;
  f.base.workload.session_arrivals_per_sec = 600.0;
  f.base.workload.duration = sim::Duration::seconds(4);
  f.base.plan = default_plan(f.base, kFleetPlanSeed);
  f.circuits = kFleetCircuits;
  f.shards = fleet_shards();
  f.cross_shard_beacons = true;
  return f;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at exit.

struct Span {
  const char* name = "";
  int run = 0;     ///< repetition id: spans of one repetition share it
  int id = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Invariant-checker time inside this span's interval.
  std::int64_t checker_ns = 0;
};

/// Times QuorumTraceChecker::append (through the circuit's own sink, so
/// the protocol filter is included where the options enable it), counts
/// records by kind, and notes the sim time of the last release.
class TimingSink final : public obs::TraceSink {
 public:
  explicit TimingSink(obs::TraceSink& downstream) : downstream_(downstream) {}

  void append(const obs::TraceRecord& record) override {
    const std::int64_t t0 = wall_ns();
    downstream_.append(record);
    ns_ += wall_ns() - t0;
    ++by_kind_[static_cast<std::size_t>(record.event)];
    if (record.event == obs::TraceEvent::kCompareRelease ||
        record.event == obs::TraceEvent::kCompareFastpath) {
      last_release_ns_ = std::max(last_release_ns_, record.at_ns);
    }
  }

  [[nodiscard]] std::int64_t last_release_ns() const noexcept {
    return last_release_ns_;
  }

  [[nodiscard]] std::int64_t ns() const noexcept { return ns_; }
  [[nodiscard]] const std::array<std::uint64_t, 256>& by_kind() const noexcept {
    return by_kind_;
  }

 private:
  obs::TraceSink& downstream_;
  std::int64_t ns_ = 0;
  std::array<std::uint64_t, 256> by_kind_{};
  std::int64_t last_release_ns_ = 0;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  /// Opens a span; `sink` (may be null) attributes checker time to it.
  int open(const char* name, int run, int parent, const TimingSink* sink) {
    Span s;
    s.name = name;
    s.run = run;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    if (sink != nullptr) s.checker_ns = sink->ns();
    s.start_ns = wall_ns();
    spans_.push_back(s);
    return s.id;
  }

  void close(int id, const TimingSink* sink) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = wall_ns();
    s.checker_ns = sink != nullptr ? sink->ns() - s.checker_ns : 0;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"run\":%d,\"id\":%d,\"parent\":%d,"
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"checker_ns\":%" PRId64 "}\n",
                   s.name, s.run, s.id, s.parent, s.start_ns, s.end_ns,
                   s.checker_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// JSON output helpers.

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
  return buf;
}

std::string hex_list(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (const std::uint64_t v : values) {
    if (out.size() > 1) out += ',';
    out += hex(v);
  }
  out += ']';
  return out;
}

void field(std::string& out, std::string_view key, std::string_view value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += value;
}

void field(std::string& out, std::string_view key, std::int64_t value) {
  field(out, key, std::to_string(value));
}

void field_u(std::string& out, std::string_view key, std::uint64_t value) {
  field(out, key, std::to_string(value));
}

void field_f(std::string& out, std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  field(out, key, buf);
}

/// The fields every repetition reports about one circuit's result.
void result_fields(std::string& out, const scenario::SoakResult& r) {
  field_u(out, "sent", r.datagrams_sent);
  field_u(out, "delivered", r.delivered_unique);
  field_u(out, "duplicates", r.duplicate_egress);
  field_u(out, "violations", r.invariants.violations);
  field_u(out, "trace_records", r.trace_records);
  field_u(out, "audits", r.audits);
  field_f(out, "sim_seconds", r.sim_seconds);
  field(out, "stream_hash", hex(r.stream_hash));
  field(out, "egress_hash", hex(r.egress_set_hash));
  field(out, "metrics", r.metrics_json);
}

// ---------------------------------------------------------------------------
// One circuit through the same window loop as scenario::run_soak.

struct CircuitRep {
  scenario::SoakResult result;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;  ///< start() through finalize()
  std::int64_t cpu_ns = 0;
  std::int64_t peak_rss_kb = 0;  ///< construction through finalize()
  std::uint64_t sim_events = 0;
  std::uint64_t sim_compactions = 0;
  std::optional<std::array<std::uint64_t, 256>> kinds;  ///< traced only
  std::int64_t last_release_ns = 0;                       ///< traced only
};

/// Runs one circuit. With `spans`, every call into the library is a span
/// of repetition `run` and the checker is timed; without, the loop is
/// exactly run_soak's.
CircuitRep drive_circuit(const scenario::SoakOptions& options, SpanLog* spans,
                         int run) {
  CircuitRep rep;
  obs::global().metrics.reset();
  reset_peak_rss();
  const int root = spans != nullptr ? spans->open("rep", run, -1, nullptr) : -1;

  int span = spans != nullptr
                 ? spans->open("scenario.setup", run, root, nullptr)
                 : -1;
  const std::int64_t t0 = wall_ns();
  scenario::SoakCircuit circuit(options);
  rep.setup_ns = wall_ns() - t0;
  if (spans != nullptr) spans->close(span, nullptr);

  std::optional<TimingSink> timing;
  if (spans != nullptr) timing.emplace(circuit.trace_sink());
  const TimingSink* ts = timing ? &*timing : nullptr;
  obs::ScopedTraceSink scoped(timing ? static_cast<obs::TraceSink&>(*timing)
                                     : circuit.trace_sink());
  sim::Simulator& simulator = circuit.simulator();

  const std::int64_t c0 = cpu_ns();
  const std::int64_t t1 = wall_ns();
  if (spans == nullptr) {
    sim::TimePoint cap = circuit.start();
    while (cap != scenario::SoakCircuit::done_marker()) {
      simulator.run_until(cap);
      cap = circuit.on_window(cap);
    }
    circuit.finalize();
  } else {
    span = spans->open("scenario.start", run, root, ts);
    sim::TimePoint cap = circuit.start();
    spans->close(span, ts);
    while (cap != scenario::SoakCircuit::done_marker()) {
      span = spans->open("sim.window", run, root, ts);
      simulator.run_until(cap);
      spans->close(span, ts);
      span = spans->open("faultinject.audit", run, root, ts);
      cap = circuit.on_window(cap);
      spans->close(span, ts);
    }
    span = spans->open("scenario.finalize", run, root, ts);
    circuit.finalize();
    spans->close(span, ts);
    rep.kinds = timing->by_kind();
    rep.last_release_ns = timing->last_release_ns();
  }
  rep.run_ns = wall_ns() - t1;
  rep.cpu_ns = cpu_ns() - c0;
  rep.peak_rss_kb = peak_rss_kb();
  rep.sim_events = simulator.events_executed();
  rep.sim_compactions = simulator.compactions();
  if (spans != nullptr) spans->close(root, nullptr);
  rep.result = circuit.take_result();
  return rep;
}

std::string circuit_rep_json(const CircuitRep& rep, const char* mode,
                             int run) {
  std::string out = "{";
  field(out, "mode", std::string("\"") + mode + "\"");
  field(out, "run", std::int64_t{run});
  field(out, "setup_ns", rep.setup_ns);
  field(out, "run_ns", rep.run_ns);
  field(out, "cpu_ns", rep.cpu_ns);
  field(out, "peak_rss_kb", rep.peak_rss_kb);
  result_fields(out, rep.result);
  field_u(out, "sim_events", rep.sim_events);
  field_u(out, "sim_compactions", rep.sim_compactions);
  if (rep.kinds) {
    field(out, "last_release_ns", rep.last_release_ns);
    std::string kinds = "{";
    for (std::size_t i = 0; i < rep.kinds->size(); ++i) {
      if ((*rep.kinds)[i] == 0) continue;
      field_u(kinds, obs::to_string(static_cast<obs::TraceEvent>(i)),
              (*rep.kinds)[i]);
    }
    kinds += '}';
    field(out, "kinds", kinds);
  }
  out += '}';
  return out;
}

/// Construction time of one circuit.
std::int64_t circuit_setup_ns(const scenario::SoakOptions& options) {
  obs::global().metrics.reset();
  const std::int64_t t0 = wall_ns();
  scenario::SoakCircuit circuit(options);
  return wall_ns() - t0;
}

// ---------------------------------------------------------------------------
// The fleet.

/// Circuit i of the fleet, with the seed run_sharded_soak gives it.
scenario::SoakOptions fleet_circuit(const scenario::ShardedSoakOptions& fleet,
                                    std::size_t i) {
  scenario::SoakOptions o = fleet.base;
  if (i != 0) o.seed = hash_mix(fleet.base.seed, i);
  return o;
}

/// Construction time of the fleet's circuits, built one after another on
/// this thread.
std::int64_t fleet_setup_ns(const scenario::ShardedSoakOptions& fleet) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < fleet.circuits; ++i) {
    const scenario::SoakOptions o = fleet_circuit(fleet, i);
    const std::int64_t t0 = wall_ns();
    scenario::SoakCircuit circuit(o);
    total += wall_ns() - t0;
  }
  return total;
}

/// Log-spaced flow-completion buckets, 1% wide from 10 us to 100 s. The
/// engine's own workload.fct_ms buckets are a factor of 2 to 2.5 wide, and
/// a p99 interpolated inside such a bucket, where few flows fall, jumps by
/// tens of percent when a handful of flows move.
std::vector<double> fine_fct_bounds() {
  std::vector<double> bounds;
  for (double b = 0.01; b < 1e5; b *= 1.01) bounds.push_back(b);
  return bounds;
}

/// The fleet's circuits driven alone (scenario::run_workload), spread over
/// `threads` threads. Each thread registers workload.fct_ms with the fine
/// buckets before its first circuit, so the engine records into those.
struct FleetSolo {
  std::vector<std::uint64_t> stream_hashes;  ///< per circuit
  std::uint64_t violations = 0;
  double fct_p99_ms = 0.0;
};

FleetSolo fleet_solo(const scenario::ShardedSoakOptions& fleet,
                     int threads) {
  const std::vector<double> bounds = fine_fct_bounds();
  FleetSolo out;
  out.stream_hashes.resize(fleet.circuits);
  std::vector<obs::Histogram> fct(static_cast<std::size_t>(threads),
                                  obs::Histogram(bounds));
  std::vector<std::uint64_t> violations(fct.size(), 0);
  std::vector<std::thread> workers;
  for (std::size_t l = 0; l < fct.size(); ++l) {
    workers.emplace_back([&, l] {
      obs::Histogram& engine_fct =
          obs::global().metrics.histogram("workload.fct_ms", bounds);
      for (std::size_t i = l; i < fleet.circuits; i += fct.size()) {
        const scenario::SoakResult r =
            scenario::run_workload(fleet_circuit(fleet, i));
        out.stream_hashes[i] = r.stream_hash;
        violations[l] += r.invariants.violations;
        fct[l].merge_from(engine_fct);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t l = 0; l < fct.size(); ++l) {
    out.violations += violations[l];
    if (l != 0) fct[0].merge_from(fct[l]);
  }
  out.fct_p99_ms = fct[0].quantile(0.99);
  return out;
}

std::string fleet_rep_json(const scenario::ShardedSoakOptions& fleet,
                           SpanLog* spans, int run) {
  const int span =
      spans != nullptr ? spans->open("shard.fleet", run, -1, nullptr) : -1;
  reset_peak_rss();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = wall_ns();
  const scenario::ShardedSoakResult r = scenario::run_workload_fleet(fleet);
  const std::int64_t run_ns = wall_ns() - t0;
  const std::int64_t cpu = cpu_ns() - c0;
  const std::int64_t peak = peak_rss_kb();
  if (spans != nullptr) spans->close(span, nullptr);

  std::uint64_t violations = 0;
  for (const scenario::SoakResult& c : r.circuits) {
    violations += c.invariants.violations;
  }
  std::string out = "{";
  field(out, "mode", "\"fleet\"");
  field(out, "run", std::int64_t{run});
  field(out, "run_ns", run_ns);
  field(out, "cpu_ns", cpu);
  field(out, "peak_rss_kb", peak);
  field_u(out, "sent", r.datagrams_sent);
  field_u(out, "delivered", r.delivered_unique);
  field_u(out, "duplicates", r.duplicate_egress);
  field_u(out, "violations", violations + (r.ok() ? 0 : 1));
  field(out, "stream_hash", hex(r.merged_stream_hash));
  field(out, "egress_hash", hex(r.merged_egress_hash));
  std::vector<std::uint64_t> hashes;
  for (const scenario::SoakResult& c : r.circuits) {
    hashes.push_back(c.stream_hash);
  }
  field(out, "circuit_hashes", hex_list(hashes));
  field_u(out, "rounds", r.rounds);
  field_u(out, "cross_msgs", r.cross_shard_messages);
  field(out, "metrics", r.metrics_json);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const bool fleet = args->workload == "fleet-flash";
  scenario::ShardedSoakOptions fleet_options;
  scenario::SoakOptions options;
  if (args->workload == "soak-k5-verify") {
    options = soak_k5_verify(args->seed);
  } else if (args->workload == "soak-k5-sampled") {
    options = soak_k5_sampled(args->seed);
  } else if (fleet) {
    fleet_options = fleet_flash(args->seed);
    options = fleet_options.base;  // circuit 0
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  SpanLog spans;
  std::string reps = "[";
  auto add_rep = [&reps](const std::string& rep) {
    if (reps.size() > 1) reps += ',';
    reps += rep;
  };
  // A measured repetition carries the host probes taken right before and
  // right after it; consecutive repetitions share the probe between them.
  std::int64_t probe = 0;
  auto add_probed_rep = [&](std::string rep) {
    const std::int64_t next = host_probe_ns();
    std::string probes = "[";
    probes += std::to_string(probe);
    probes += ',';
    probes += std::to_string(next);
    probes += ']';
    rep.pop_back();
    field(rep, "probe_ns", probes);
    rep += '}';
    add_rep(rep);
    probe = next;
  };

  // Reference run, which is also the warm-up: scenario::run_soak on the
  // same options (circuit 0 for the fleet).
  const int ref_span = args->trace
                           ? spans.open("scenario.run_soak", 0, -1, nullptr)
                           : -1;
  const scenario::SoakResult reference = scenario::run_soak(options);
  if (args->trace) spans.close(ref_span, nullptr);
  std::string ref = "{";
  result_fields(ref, reference);
  ref += '}';

  const std::int64_t budget_ns =
      static_cast<std::int64_t>(args->seconds * 1e9);
  std::int64_t begin = 0;  // set when the measured repetitions start
  auto in_budget = [&](int done, int min_reps) {
    return done < min_reps || wall_ns() - begin < budget_ns;
  };

  std::string setups = "[";
  auto add_setup = [&setups](std::int64_t ns) {
    if (setups.size() > 1) setups += ',';
    setups += std::to_string(ns);
  };
  int run = 1;
  std::string solo;  // fleet only: its circuits driven alone
  if (!args->trace && fleet) {
    const FleetSolo s = fleet_solo(fleet_options, fleet_options.shards);
    solo = "{";
    field_u(solo, "violations", s.violations);
    field_f(solo, "fct_p99_ms", s.fct_p99_ms);
    field(solo, "stream_hashes", hex_list(s.stream_hashes));
    solo += '}';
    begin = wall_ns();
    // Set-up is timed apart from the measured repetitions (the fleet
    // builds its circuits inside run_workload_fleet, on its workers).
    // No host probes: the fleet's times do not follow them (see README).
    for (int done = 0; in_budget(done, 3); ++done) {
      for (int i = 0; i < kSetupSamplesPerRep; ++i) {
        add_setup(fleet_setup_ns(fleet_options));
      }
      add_rep(fleet_rep_json(fleet_options, nullptr, run++));
    }
  } else if (!args->trace) {
    // One untimed traced repetition: the soak's stream completion time
    // comes from its sink, and it checks trace neutrality in this mode too.
    add_rep(circuit_rep_json(drive_circuit(options, &spans, run), "observed",
                             run));
    ++run;
    begin = wall_ns();
    probe = host_probe_ns();
    for (int done = 0; in_budget(done, 3); ++done) {
      for (int i = 0; i < kSetupSamplesPerRep; ++i) {
        add_setup(circuit_setup_ns(options));
      }
      add_probed_rep(circuit_rep_json(drive_circuit(options, nullptr, run),
                                      "plain", run));
      ++run;
    }
  } else {
    // Traced: one fleet run for the shard layer, then untraced and traced
    // repetitions of one circuit in alternating order, so host drift hits
    // both sides of trace.overhead alike.
    if (fleet) add_rep(fleet_rep_json(fleet_options, &spans, run++));
    begin = wall_ns();
    for (int pair = 0; in_budget(pair, 2); ++pair) {
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (pair % 2 == 0);
        add_rep(circuit_rep_json(
            drive_circuit(options, traced ? &spans : nullptr, run),
            traced ? "traced" : "plain", run));
        ++run;
      }
    }
  }
  reps += ']';
  setups += ']';

  std::string out = "{";
  field(out, "workload", "\"" + args->workload + "\"");
  field_u(out, "seed", args->seed);
  field(out, "nproc", std::int64_t{std::thread::hardware_concurrency()});
  field(out, "shards", std::int64_t{fleet ? fleet_options.shards : 1});
  field(out, "reference", ref);
  field(out, "setup_ns", setups);
  field(out, "reps", reps);
  if (!solo.empty()) field(out, "solo", solo);
  out += '}';

  if (args->trace && !args->spans.empty() && !spans.write(args->spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args->spans.c_str());
    return 1;
  }
  std::puts(out.c_str());
  return 0;
}
