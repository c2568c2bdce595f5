// One driver for every scenario circuit: the solo window loop
// (run_circuit), the only sim::ShardCell adapter (CircuitCell) and the
// fleet runner (run_fleet). The Fig. 3 soak, the RIP diamond and the
// fat-tree failover harness are all circuits; each supplies the circuit
// and this file drives it.
//
// The circuit contract. A circuit is one scenario instance that owns its
// own sim::Simulator and exposes the window protocol:
//
//   using Options = ...;                 has a `std::uint64_t seed`
//   using Result = ...;                  has a `std::uint64_t stream_hash`
//   explicit Circuit(const Options&);    builds everything, emits nothing
//   sim::Simulator& simulator();         the circuit's event loop
//   obs::TraceSink& trace_sink();        where its trace records must go
//   sim::TimePoint start();              arms traffic and faults; returns
//                                        the first window cap
//   sim::TimePoint on_window(committed); between-window bookkeeping once
//                                        the simulator reached `committed`
//                                        (always the cap it last returned);
//                                        returns the next cap, or
//                                        sim::ShardCell::done_marker()
//   void finalize();                     collects the result, reading the
//                                        calling thread's metrics
//   Result take_result();                moves the result out
//
// Per-window trace sink. Every record a circuit emits, in its windows and
// in finalize(), must reach its own trace_sink() through the running
// thread's tracer. run_circuit installs it once for the whole run. In a
// fleet, cells pinned to one worker share that worker's thread-local
// tracer, so CircuitCell re-aims it before every window and around
// finalize().
//
// Window slicing. A fleet's conservative protocol may stop a cell below
// the cap it asked for (a neighbor bounded its horizon); CircuitCell then
// simply continues toward the same cap, so on_window() runs exactly on the
// circuit's own cap boundaries however the rounds slice the run. Circuits
// therefore need no `committed < cap` guard of their own.
//
// Seeds. Circuit 0 of a fleet runs base.seed exactly, so a 1-circuit
// fleet reproduces the solo run bit-for-bit; circuit i > 0 runs
// hash_mix(base.seed, i) (circuit_seed()).
//
// Hash fold. Per-circuit hashes fold in circuit-index order, h =
// hash_mix(h, hash_i) from h = kFnvOffset, except that a single circuit's
// hash passes through unchanged (fold_circuit_hashes()). A circuit's
// event stream depends only on its options, never on the shard count or
// on which circuits share a worker, so every merged hash is shard-count
// invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "obs/observability.h"
#include "sim/shard.h"

namespace netco::link {
class Channel;
}

namespace netco::scenario {

/// Circuit i's seed in a fleet whose template runs `base_seed`.
[[nodiscard]] constexpr std::uint64_t circuit_seed(std::uint64_t base_seed,
                                                   std::size_t i) noexcept {
  return i == 0 ? base_seed
                : hash_mix(base_seed, static_cast<std::uint64_t>(i));
}

/// The canonical fold of `hash(r)` over circuits in index order (identity
/// for a single circuit).
template <class R, class Hash>
[[nodiscard]] std::uint64_t fold_circuit_hashes(const std::vector<R>& circuits,
                                                Hash hash) {
  if (circuits.size() == 1) return hash(circuits.front());
  std::uint64_t folded = kFnvOffset;
  for (const R& r : circuits) folded = hash_mix(folded, hash(r));
  return folded;
}

/// Runs one circuit to completion on the calling thread.
template <class Circuit>
typename Circuit::Result run_circuit(Circuit& circuit) {
  obs::ScopedTraceSink scoped(circuit.trace_sink());
  sim::TimePoint cap = circuit.start();
  while (cap != sim::ShardCell::done_marker()) {
    circuit.simulator().run_until(cap);
    cap = circuit.on_window(cap);
  }
  circuit.finalize();
  return circuit.take_result();
}

/// Everything a fleet run produces that does not depend on the circuit
/// type.
struct FleetStats {
  /// fold_circuit_hashes over the per-circuit stream hashes.
  std::uint64_t merged_stream_hash = 0;
  /// Conservative-protocol rounds (shard-count invariant).
  std::uint64_t rounds = 0;
  /// Cross-shard deliveries (beacon traffic; 0 without the ring).
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t beacons_received = 0;
  /// Wall-clock of the sharded run (coordinator side).
  double wall_seconds = 0.0;
  /// Per-worker metrics registries merged in worker order: counter totals
  /// are shard-count invariant; histogram float sums are deterministic
  /// for a fixed shard count.
  std::string metrics_json;
};

template <class R>
struct FleetResult : FleetStats {
  std::vector<R> circuits;  ///< indexed by circuit id
};

namespace detail {

/// What the fleet hands each cell on its worker: the outgoing beacon
/// channel (null = no ring), the receiver's beacon counter and the send
/// period.
struct CellWiring {
  sim::ShardChannel* beacon_out = nullptr;
  std::uint64_t* peer_beacons = nullptr;
  sim::Duration beacon_period;
};

/// Periodic 64-byte heartbeats from one circuit to the next over a
/// cross-shard link::Channel. Deliveries only bump the receiver's counter
/// (no RNG draws, no trace records), so the ring exercises the
/// shard-crossing link path without perturbing any circuit's stream.
class BeaconTransmitter {
 public:
  BeaconTransmitter(sim::Simulator& simulator, const CellWiring& wiring);
  ~BeaconTransmitter();

  BeaconTransmitter(const BeaconTransmitter&) = delete;
  BeaconTransmitter& operator=(const BeaconTransmitter&) = delete;

  /// Sends every period for the rest of the run; events still pending
  /// when the circuit finishes never execute.
  void start();

 private:
  sim::Simulator& simulator_;
  sim::Duration period_;
  std::unique_ptr<link::Channel> tx_;
};

/// Builds circuit i's cell on its worker.
using CellFactory = std::function<std::unique_ptr<sim::ShardCell>(
    std::size_t circuit, const CellWiring& wiring)>;

/// The circuit-independent half of run_fleet: runs `circuits` cells on a
/// ShardedSimulator with `shards` workers (fresh thread-local metrics and
/// tracer per worker, registries merged in worker order), wiring the
/// beacon ring i → (i+1) % circuits when `beacon_period` is set and there
/// is more than one circuit. Fills every FleetStats field except
/// merged_stream_hash.
void run_cells(std::size_t circuits, int shards,
               std::optional<sim::Duration> beacon_period,
               const CellFactory& make_cell, FleetStats& stats);

}  // namespace detail

/// The sim::ShardCell adapter for any circuit.
template <class Circuit>
class CircuitCell final : public sim::ShardCell {
 public:
  using Result = typename Circuit::Result;

  CircuitCell(const typename Circuit::Options& options,
              const detail::CellWiring& wiring, Result* out)
      : circuit_(options), out_(out) {
    if (wiring.beacon_out != nullptr) {
      beacon_ = std::make_unique<detail::BeaconTransmitter>(
          circuit_.simulator(), wiring);
    }
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept override {
    return circuit_.simulator();
  }

  sim::TimePoint start() override {
    if (beacon_ != nullptr) beacon_->start();
    cap_ = circuit_.start();
    return cap_;
  }

  void before_window() override {
    obs::global().tracer.set_sink(&circuit_.trace_sink());
  }

  sim::TimePoint on_window(sim::TimePoint committed) override {
    if (committed < cap_) return cap_;
    cap_ = circuit_.on_window(committed);
    return cap_;
  }

  void finalize() override {
    obs::global().tracer.set_sink(&circuit_.trace_sink());
    circuit_.finalize();
    obs::global().tracer.set_sink(nullptr);
    *out_ = circuit_.take_result();
  }

 private:
  Circuit circuit_;
  Result* out_;
  std::unique_ptr<detail::BeaconTransmitter> beacon_;
  sim::TimePoint cap_;
};

/// Runs `circuits` copies of Circuit built from `base` (seeds per
/// circuit_seed) on `shards` workers. Same options ⇒ identical per-circuit
/// results and merged hashes for every shard count.
template <class Circuit>
FleetResult<typename Circuit::Result> run_fleet(
    const typename Circuit::Options& base, std::size_t circuits, int shards,
    std::optional<sim::Duration> beacon_period = std::nullopt) {
  using Result = typename Circuit::Result;
  FleetResult<Result> out;
  out.circuits.resize(circuits);
  detail::run_cells(
      circuits, shards, beacon_period,
      [&base, &out](std::size_t i, const detail::CellWiring& wiring) {
        typename Circuit::Options options = base;
        options.seed = circuit_seed(base.seed, i);
        return std::make_unique<CircuitCell<Circuit>>(options, wiring,
                                                      &out.circuits[i]);
      },
      out);
  out.merged_stream_hash = fold_circuit_hashes(
      out.circuits, [](const Result& r) { return r.stream_hash; });
  return out;
}

}  // namespace netco::scenario
