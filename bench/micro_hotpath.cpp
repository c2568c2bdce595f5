// Hot-path microbench: packet fan-out copy cost, hash memoization, and
// scheduler churn in isolation (plus a reported, ungated soak-shaped
// steady-queue row), with the pre-change baseline *recorded in
// the same run* so BENCH_hotpath.json carries before/after numbers from
// one machine at one moment.
//
// Baselines reconstruct what the code paid before the zero-copy rework:
//   * fan-out: k deep payload copies + k full FNV-1a hashes per datagram
//     (what the hub + compare pipeline cost when Packet owned its vector);
//   * hash: a full FNV-1a pass per call (no memoization);
//   * scheduler: a std::function + shared_ptr<bool> cancellation flag per
//     event — the two heap allocations the old Simulator::schedule_at made;
//   * timer churn: the binary heap itself — schedule+cancel of short-
//     horizon flow timers against a standing population, which the
//     hierarchical timer wheel replaces with O(1) slot splices;
//   * trace render+hash: the checker's per-record stream-hash step as it
//     was — snprintf the canonical line into a std::string, append '\n'
//     (a second string), FNV-1a the copy — against obs::render_jsonl into
//     a reused buffer, folded in place.
//
// The switch-hop row drives datagrams one at a time over a host -> switch
// -> switch -> host chain and reports events and ns per datagram. Three
// links, each one event: the two into a switch end in its pipeline, the
// last at the host. Its baseline is the same chain with an ingress tap
// armed on both switches, which keeps the arrival-time delivery (a link
// arrival event, then a pipeline event): 5 events.
//
// Verdict (exit status): 0 iff the k=3 duplicate+hash fan-out, the
// wheel's schedule+cancel churn AND the trace render+hash each show at
// least a 2x reduction versus the baselines measured in the same run (and
// the two trace paths hash to the same value), and a switch-hop datagram
// costs exactly 3 events (an exact count; its ns are reported only).
//
// Env knobs:
//   NETCO_BENCH_QUICK=1   — short CI-sized timing windows
//   NETCO_HOTPATH_OUT=path — summary path (default BENCH_hotpath.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "device/network.h"
#include "net/headers.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "openflow/switch.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

namespace {

using namespace netco;
using Clock = std::chrono::steady_clock;

/// Prevents the optimizer from deleting a computed value.
std::uint64_t g_sink = 0;
inline void consume(std::uint64_t v) noexcept { g_sink ^= v; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body(batch)` in batches until `min_seconds` of wall time elapsed;
/// returns ns per item.
template <typename Body>
double time_per_item(double min_seconds, std::uint64_t batch, Body&& body) {
  // Warmup pass so first-touch allocation and cache effects settle.
  body(batch);
  std::uint64_t items = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body(batch);
    items += batch;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(items);
}

net::Packet random_packet(Rng& rng, std::size_t bytes) {
  std::vector<std::byte> payload(bytes);
  for (auto& b : payload) {
    b = static_cast<std::byte>(rng.next_u64() & 0xFF);
  }
  return net::Packet(std::move(payload));
}

struct Comparison {
  double baseline_ns = 0.0;
  double optimized_ns = 0.0;
  [[nodiscard]] double speedup() const noexcept {
    return optimized_ns > 0.0 ? baseline_ns / optimized_ns : 0.0;
  }
};

/// k-fold duplicate+hash per datagram: the hub fan-out plus the compare's
/// per-copy key computation.
Comparison bench_fanout(double min_seconds, int k, std::size_t payload) {
  Rng rng(42);
  const net::Packet packet = random_packet(rng, payload);

  Comparison result;
  // Pre-change model: every copy is a deep payload copy, every copy is
  // hashed from scratch.
  result.baseline_ns = time_per_item(min_seconds, 2048, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        const auto view = packet.bytes();
        net::Packet copy(std::vector<std::byte>(view.begin(), view.end()));
        consume(fnv1a(copy.bytes()));
      }
    }
  });
  // Post-change path: copying is a refcount bump; content_hash() memoizes
  // in the shared buffer, so the k copies share one computation (already
  // done by the warm packet).
  result.optimized_ns = time_per_item(min_seconds, 2048, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        net::Packet copy = packet;  // COW
        consume(copy.content_hash());
      }
    }
  });
  return result;
}

/// Repeated content hashing of one (large) packet: trace emit + compare
/// key + sampling decision all ask for the same id.
Comparison bench_hash_memo(double min_seconds, std::size_t payload) {
  Rng rng(43);
  const net::Packet packet = random_packet(rng, payload);

  Comparison result;
  result.baseline_ns = time_per_item(min_seconds, 4096, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      consume(fnv1a(packet.bytes()));  // pre-change: full pass every call
    }
  });
  result.optimized_ns = time_per_item(min_seconds, 4096, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      consume(packet.content_hash());  // memoized
    }
  });
  return result;
}

/// Schedule + dispatch cost per event, with a packet-sized capture (the
/// link/switch/hub closures all carry one COW packet handle).
Comparison bench_scheduler(double min_seconds, std::size_t payload) {
  Rng rng(44);
  const net::Packet packet = random_packet(rng, payload);
  constexpr std::uint64_t kEventsPerBatch = 8192;

  Comparison result;
  // Pre-change model: the event record carried a std::function plus a
  // shared_ptr<bool> cancellation flag — two heap allocations per event.
  result.baseline_ns =
      time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < n; ++i) {
          auto cancelled = std::make_shared<bool>(false);
          std::function<void()> fn = [p = packet, cancelled] {
            if (!*cancelled) consume(p.size());
          };
          simulator.schedule_after(sim::Duration::nanoseconds(1),
                                   std::move(fn));
        }
        simulator.run();
      });
  result.optimized_ns =
      time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < n; ++i) {
          simulator.schedule_after(sim::Duration::nanoseconds(1),
                                   [p = packet] { consume(p.size()); });
        }
        simulator.run();
      });
  return result;
}

/// A link delivering to a port: each fire schedules its successor with a
/// `this` + port + Packet closure, like the soak's per-hop events.
struct SteadyQueue {
  sim::Simulator* simulator;
  std::uint64_t remaining;

  void fire(std::uint32_t port, net::Packet packet) {
    consume(packet.size() + port);
    if (remaining == 0) return;
    --remaining;
    const auto delay = sim::Duration::nanoseconds(
        1 + static_cast<std::int64_t>((remaining * 2654435761u) % 997));
    simulator->schedule_after(
        delay, [this, port, p = std::move(packet)]() mutable {
          fire(port, std::move(p));
        });
  }
};

/// Schedule + dispatch cost per event in a steady small queue shaped like
/// the soak's (~32 live events, queue depth never grows). Reported only.
double bench_steady_queue(double min_seconds, std::size_t payload) {
  Rng rng(46);
  const net::Packet packet = random_packet(rng, payload);
  constexpr std::uint32_t kLive = 32;
  return time_per_item(min_seconds, 8192, [&](std::uint64_t n) {
    sim::Simulator simulator(1);
    SteadyQueue queue{&simulator, n - kLive};
    for (std::uint32_t port = 0; port < kLive; ++port) {
      simulator.schedule_after(sim::Duration::nanoseconds(port),
                               [&queue, port, p = packet]() mutable {
                                 queue.fire(port, std::move(p));
                               });
    }
    simulator.run();
  });
}

/// One end of the switch-hop chain. The far end hands each datagram it
/// receives back to the near end's wire until the budget is spent, so at
/// most one datagram is in flight and no link ever queues.
class ChainEnd final : public device::Node {
 public:
  using Node::Node;
  void handle_packet(device::PortIndex, net::Packet packet) override {
    if (remaining == 0) return;
    --remaining;
    source->send(0, std::move(packet));
  }
  ChainEnd* source = nullptr;
  std::uint64_t remaining = 0;
};

struct SwitchHop {
  double ns_per_datagram = 0.0;
  std::uint64_t datagrams = 0;
  std::uint64_t events = 0;
};

/// Datagrams over host -> switch -> switch -> host, one at a time;
/// `tapped` arms a no-op ingress tap on both switches.
SwitchHop bench_switch_hop(double min_seconds, std::size_t payload,
                           bool tapped) {
  const std::vector<std::byte> bytes(payload, std::byte{0x5A});
  const net::Packet packet = net::build_udp(
      net::EthernetHeader{.dst = net::MacAddress::from_id(2),
                          .src = net::MacAddress::from_id(1)},
      std::nullopt,
      net::Ipv4Header{.src = net::Ipv4Address::from_id(1),
                      .dst = net::Ipv4Address::from_id(2)},
      net::UdpHeader{.src_port = 9, .dst_port = 5001}, bytes);
  SwitchHop hop;
  hop.ns_per_datagram = time_per_item(min_seconds, 4096, [&](std::uint64_t n) {
    sim::Simulator simulator(1);
    device::Network network(simulator);
    auto& h1 = network.add_node<ChainEnd>("h1");
    auto& s1 = network.add_node<openflow::OpenFlowSwitch>("s1");
    auto& s2 = network.add_node<openflow::OpenFlowSwitch>("s2");
    auto& h2 = network.add_node<ChainEnd>("h2");
    // Port 0 of each switch faces h1, port 1 faces h2.
    network.connect(h1, s1);
    network.connect(s1, s2);
    network.connect(s2, h2);
    for (openflow::OpenFlowSwitch* sw : {&s1, &s2}) {
      openflow::FlowSpec spec;
      spec.match.with_in_port(0);
      spec.actions = {openflow::OutputAction::to(1)};
      sw->table().add(spec, simulator.now());
      if (tapped) {
        sw->set_ingress_tap([](device::PortIndex, const net::Packet&) {});
      }
    }
    h2.source = &h1;
    h2.remaining = n - 1;
    h1.send(0, packet);
    simulator.run();
    hop.datagrams += n;
    hop.events += simulator.events_executed();
  });
  return hop;
}

/// Schedule + cancel churn: timers that almost never fire (TCP retransmit,
/// compare unblock) exercise the tombstone path.
double bench_cancel(double min_seconds) {
  constexpr std::uint64_t kEventsPerBatch = 8192;
  return time_per_item(min_seconds, kEventsPerBatch, [&](std::uint64_t n) {
    sim::Simulator simulator(1);
    for (std::uint64_t i = 0; i < n; ++i) {
      sim::EventHandle handle = simulator.schedule_after(
          sim::Duration::microseconds(1), [] { consume(1); });
      handle.cancel();
    }
    simulator.run();
    consume(simulator.events_pending());
  });
}

/// The workload engine's dominant timer class: short-horizon schedule +
/// cancel (a pacing tick or RTO that is rescheduled before it fires)
/// against a standing population of outstanding timers. The heap pays an
/// O(log n) push plus a tombstone per churn event; the wheel pays two O(1)
/// slot splices and frees the record immediately. Both sides build the
/// same population, churn the same count, and drain to empty, so the
/// per-item figure includes every deferred cost (tombstone purges and
/// wheel anchor cascades alike).
Comparison bench_timer_wheel(double min_seconds) {
  constexpr std::uint64_t kChurnPerBatch = 32768;
  constexpr std::uint64_t kBackground = 32768;
  // Background deadlines spread over ~1 s; churn deadlines within ~1 ms.
  const auto background_us = [](std::uint64_t i) {
    return 50 + (i * 997) % 1'000'000;
  };

  Comparison result;
  result.baseline_ns =
      time_per_item(min_seconds, kChurnPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        for (std::uint64_t i = 0; i < kBackground; ++i) {
          simulator.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(background_us(i))),
              [] { consume(2); });
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          sim::EventHandle handle = simulator.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(1 + (i & 1023))),
              [] { consume(1); });
          handle.cancel();
        }
        simulator.run();
        consume(simulator.events_pending());
      });
  result.optimized_ns =
      time_per_item(min_seconds, kChurnPerBatch, [&](std::uint64_t n) {
        sim::Simulator simulator(1);
        sim::TimerWheel wheel(simulator,
                              {sim::Duration::microseconds(10)});
        for (std::uint64_t i = 0; i < kBackground; ++i) {
          wheel.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(background_us(i))),
              +[](void*, std::uint64_t arg) { consume(arg); }, nullptr, 2);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          const sim::TimerWheel::TimerId id = wheel.schedule_after(
              sim::Duration::microseconds(
                  static_cast<std::int64_t>(1 + (i & 1023))),
              +[](void*, std::uint64_t arg) { consume(arg); }, nullptr, 1);
          wheel.cancel(id);
        }
        simulator.run();
        consume(wheel.fired());
      });
  return result;
}

/// The canonical trace line as the checker used to build it: an snprintf
/// of the fixed fields, the component appended, no trailing newline.
std::string legacy_to_json(const obs::TraceRecord& record) {
  char head[160];
  const int n = std::snprintf(
      head, sizeof head,
      "{\"t\":%lld,\"ev\":\"%s\",\"pkt\":\"%016llx\",\"replica\":%d,"
      "\"bytes\":%u,\"src\":\"",
      static_cast<long long>(record.at_ns), obs::to_string(record.event),
      static_cast<unsigned long long>(record.packet_id), record.replica,
      record.bytes);
  std::string out(head, static_cast<std::size_t>(n));
  out += record.component;
  out += "\"}";
  return out;
}

/// A fixed k=5 record mix: per datagram, what a full-verification k=5 soak
/// narrates — the ingress edge's 5 replica forwards, one forward per
/// replica, 5 compare ingests, the majority release, 2 late copies, the
/// cache expiry and the egress forward (20 records, ~108 bytes a line).
std::vector<obs::TraceRecord> k5_record_mix(std::size_t datagrams) {
  Rng rng(45);
  std::vector<obs::TraceRecord> mix;
  const auto add = [&](std::int64_t at_ns, obs::TraceEvent event,
                       std::uint64_t id, std::int32_t replica,
                       const char* component) {
    mix.push_back({at_ns, event, id, replica, 242, component});
  };
  const char* const replicas[] = {"netco-r0", "netco-r1", "netco-r2",
                                  "netco-r3", "netco-r4"};
  for (std::size_t d = 0; d < datagrams; ++d) {
    using obs::TraceEvent;
    const std::uint64_t id = rng.next_u64();
    const auto t = static_cast<std::int64_t>(1'000'000'000 + d * 160'000);
    for (std::int32_t r = 1; r <= 5; ++r) {
      add(t, TraceEvent::kReplicaForward, id, r, "netco-e0");
    }
    for (const char* replica : replicas) {
      add(t + 40'000, TraceEvent::kReplicaForward, id, 1, replica);
    }
    for (std::int32_t r = 0; r < 5; ++r) {
      const std::int64_t at = t + 80'000 + r * 1'000;
      add(at, TraceEvent::kCompareIngest, id, r, "compare/netco-e1");
      if (r == 2) {
        add(at, TraceEvent::kCompareRelease, id, r, "compare/netco-e1");
        add(at, TraceEvent::kReplicaForward, id, 0, "netco-e1");
      } else if (r > 2) {
        add(at, TraceEvent::kCompareLate, id, r, "compare/netco-e1");
      }
    }
    add(t + 50'000'000, TraceEvent::kCompareExpire, id, -1,
        "compare/netco-e1");
  }
  return mix;
}

/// Per-record cost of the checker's stream-hash step over the k=5 mix;
/// `hashes` receives each path's final hash (they must agree).
Comparison bench_trace_render(double min_seconds, std::uint64_t (&hashes)[2]) {
  const std::vector<obs::TraceRecord> mix = k5_record_mix(64);
  const auto batch = static_cast<std::uint64_t>(mix.size());

  Comparison result;
  result.baseline_ns = time_per_item(min_seconds, batch, [&](std::uint64_t) {
    std::uint64_t hash = kFnvOffset;
    for (const obs::TraceRecord& record : mix) {
      const std::string line = legacy_to_json(record) + '\n';
      hash = fnv1a(std::as_bytes(std::span(line.data(), line.size())), hash);
    }
    hashes[0] = hash;
    consume(hash);
  });
  std::string buffer;
  result.optimized_ns = time_per_item(min_seconds, batch, [&](std::uint64_t) {
    std::uint64_t hash = kFnvOffset;
    for (const obs::TraceRecord& record : mix) {
      const std::string_view line = obs::render_jsonl(record, buffer);
      hash = fnv1a(std::as_bytes(std::span(line.data(), line.size())), hash);
    }
    hashes[1] = hash;
    consume(hash);
  });
  return result;
}

}  // namespace

int main() {
  const bool quick = std::getenv("NETCO_BENCH_QUICK") != nullptr;
  const double min_seconds = quick ? 0.02 : 0.25;
  constexpr int kFanout = 3;
  constexpr std::size_t kPayload = 1470;

  std::printf("\n=== NetCo hot-path microbench (payload=%zuB, k=%d) ===\n",
              kPayload, kFanout);

  const Comparison fanout = bench_fanout(min_seconds, kFanout, kPayload);
  const Comparison hash = bench_hash_memo(min_seconds, kPayload);
  const Comparison sched = bench_scheduler(min_seconds, kPayload);
  const double steady_ns = bench_steady_queue(min_seconds, kPayload);
  const double cancel_ns = bench_cancel(min_seconds);
  const Comparison wheel = bench_timer_wheel(min_seconds);
  std::uint64_t trace_hashes[2] = {};
  const Comparison trace = bench_trace_render(min_seconds, trace_hashes);
  const bool trace_same_bytes = trace_hashes[0] == trace_hashes[1];
  constexpr std::size_t kHopPayload = 200;  // the soaks' datagram payload
  const SwitchHop tapped_hop =
      bench_switch_hop(min_seconds, kHopPayload, /*tapped=*/true);
  const SwitchHop hop =
      bench_switch_hop(min_seconds, kHopPayload, /*tapped=*/false);
  const auto events_per = [](const SwitchHop& h) {
    return static_cast<double>(h.events) / static_cast<double>(h.datagrams);
  };
  const double hop_events = events_per(hop);
  const bool hop_exact = hop.events == 3 * hop.datagrams;

  std::printf("fan-out (k=%d dup+hash): deep-copy %.1f ns/pkt -> COW %.1f "
              "ns/pkt  (%.1fx)\n",
              kFanout, fanout.baseline_ns, fanout.optimized_ns,
              fanout.speedup());
  std::printf("content hash:           fnv1a    %.1f ns/call -> memoized "
              "%.1f ns/call (%.1fx)\n",
              hash.baseline_ns, hash.optimized_ns, hash.speedup());
  std::printf("scheduler event:        legacy   %.1f ns/ev  -> fast path "
              "%.1f ns/ev  (%.1fx)\n",
              sched.baseline_ns, sched.optimized_ns, sched.speedup());
  std::printf("steady queue (32 live): %.1f ns/ev (each fire schedules "
              "its successor)\n",
              steady_ns);
  std::printf("schedule+cancel:        %.1f ns/ev (tombstone purge)\n",
              cancel_ns);
  std::printf("timer churn (32k bg):   heap     %.1f ns/ev  -> wheel     "
              "%.1f ns/ev  (%.1fx)\n",
              wheel.baseline_ns, wheel.optimized_ns, wheel.speedup());
  std::printf("trace render+hash (k5): snprintf %.1f ns/rec -> in place "
              "%.1f ns/rec (%.1fx)%s\n",
              trace.baseline_ns, trace.optimized_ns, trace.speedup(),
              trace_same_bytes ? "" : "  HASH MISMATCH");
  std::printf("switch hop (h-s-s-h):   tapped   %.2f ev, %.1f ns/dgram "
              "-> merged  %.2f ev, %.1f ns/dgram (%zuB payload)\n",
              events_per(tapped_hop), tapped_hop.ns_per_datagram, hop_events,
              hop.ns_per_datagram, kHopPayload);

  char json[2048];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"hotpath\",\"quick\":%s,\"payload_bytes\":%zu,"
      "\"fanout_k%d\":{\"baseline_deep_ns_per_packet\":%.2f,"
      "\"cow_ns_per_packet\":%.2f,\"speedup\":%.2f},"
      "\"content_hash\":{\"baseline_fnv_ns_per_call\":%.2f,"
      "\"memoized_ns_per_call\":%.2f,\"speedup\":%.2f},"
      "\"scheduler\":{\"legacy_model_ns_per_event\":%.2f,"
      "\"fastpath_ns_per_event\":%.2f,\"speedup\":%.2f,"
      "\"steady_queue_32_ns_per_event\":%.2f,"
      "\"schedule_cancel_ns_per_event\":%.2f},"
      "\"timer_wheel\":{\"heap_ns_per_event\":%.2f,"
      "\"wheel_ns_per_event\":%.2f,\"speedup\":%.2f},"
      "\"trace_render_hash_k5\":{\"snprintf_string_ns_per_record\":%.2f,"
      "\"in_place_ns_per_record\":%.2f,\"speedup\":%.2f,"
      "\"same_hash\":%s},"
      "\"switch_hop\":{\"payload_bytes\":%zu,"
      "\"tapped_events_per_datagram\":%.2f,"
      "\"tapped_ns_per_datagram\":%.2f,"
      "\"events_per_datagram\":%.2f,\"ns_per_datagram\":%.2f}}",
      quick ? "true" : "false", kPayload, kFanout, fanout.baseline_ns,
      fanout.optimized_ns, fanout.speedup(), hash.baseline_ns,
      hash.optimized_ns, hash.speedup(), sched.baseline_ns,
      sched.optimized_ns, sched.speedup(), steady_ns, cancel_ns,
      wheel.baseline_ns,
      wheel.optimized_ns, wheel.speedup(), trace.baseline_ns,
      trace.optimized_ns, trace.speedup(),
      trace_same_bytes ? "true" : "false", kHopPayload,
      events_per(tapped_hop), tapped_hop.ns_per_datagram, hop_events,
      hop.ns_per_datagram);

  const char* out_path = std::getenv("NETCO_HOTPATH_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_hotpath.json";
  }
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
    std::printf("\nSummary written to %s\n", out_path);
  } else {
    std::printf("\n%s\n", json);
  }

  // The acceptance bars: the k=3 duplicate+hash fan-out must be ≥ 2x
  // cheaper than the deep-copy baseline, the timer wheel must clear a
  // ≥ 2x schedule+cancel throughput bar over the binary heap, and the
  // in-place trace render+hash must be ≥ 2x cheaper than the snprintf +
  // string path while hashing the same bytes — all measured in this run.
  // A switch-hop datagram must cost exactly one event per link.
  const bool pass = fanout.speedup() >= 2.0 && wheel.speedup() >= 2.0 &&
                    trace.speedup() >= 2.0 && trace_same_bytes && hop_exact;
  std::printf(
      "\nHot-path verdict: %s (fan-out %.1fx, timer wheel %.1fx, trace "
      "render+hash %.1fx, bar 2.0x each; switch hop %.2f events/datagram, "
      "bar 3)\n",
      pass ? "PASS" : "FAIL", fanout.speedup(), wheel.speedup(),
      trace.speedup(), hop_events);
  return pass ? 0 : 1;
}
