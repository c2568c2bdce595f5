#include "scenario/circuit_driver.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"
#include "link/link.h"

namespace netco::scenario::detail {

BeaconTransmitter::BeaconTransmitter(sim::Simulator& simulator,
                                     const CellWiring& wiring)
    : simulator_(simulator), period_(wiring.beacon_period) {
  // The beacon link's propagation doubles as the cross-shard lookahead: a
  // cross-pod link is the latency that *buys* the parallelism, so it must
  // cover the channel's declared bound.
  link::LinkConfig cfg;
  cfg.propagation = wiring.beacon_out->lookahead();
  tx_ = std::make_unique<link::Channel>(simulator_, cfg);
  tx_->set_label("beacon");
  // The delivery runs on the *receiving* cell's worker; bumping a plain
  // counter slot owned by that receiver keeps it race-free.
  std::uint64_t* peer = wiring.peer_beacons;
  tx_->bind_remote(*wiring.beacon_out, [peer](net::Packet) { ++*peer; });
}

BeaconTransmitter::~BeaconTransmitter() = default;

void BeaconTransmitter::start() {
  simulator_.schedule_after(period_, [this] {
    tx_->send(net::Packet::zeroed(64));
    start();
  });
}

void run_cells(std::size_t circuits, int shards,
               std::optional<sim::Duration> beacon_period,
               const CellFactory& make_cell, FleetStats& stats) {
  NETCO_ASSERT(circuits >= 1);
  NETCO_ASSERT(shards >= 1);
  const std::size_t n = circuits;
  const int workers = std::min<int>(shards, static_cast<int>(n));
  const bool beacons_on = beacon_period.has_value() && n > 1;
  NETCO_ASSERT_MSG(!beacons_on || *beacon_period > sim::Duration::zero(),
                   "beacon period must be positive (it is the lookahead)");

  std::vector<std::uint64_t> beacons_received(n, 0);
  std::vector<obs::MetricsRegistry> worker_metrics(
      static_cast<std::size_t>(workers));

  sim::ShardedSimulator::Options sim_opts;
  sim_opts.workers = shards;
  sim::ShardedSimulator sharded(sim_opts);

  // Factories run on the pinned workers at run(); they read the ring
  // slots by reference so connect() below can fill them in afterwards.
  std::vector<sim::ShardChannel*> ring(n, nullptr);
  const sim::Duration period = beacon_period.value_or(sim::Duration::zero());
  for (std::size_t i = 0; i < n; ++i) {
    sharded.add_cell([&make_cell, &ring, &beacons_received, i, n, period] {
      return make_cell(i, CellWiring{.beacon_out = ring[i],
                                     .peer_beacons =
                                         &beacons_received[(i + 1) % n],
                                     .beacon_period = period});
    });
  }
  if (beacons_on) {
    for (std::size_t i = 0; i < n; ++i) {
      ring[i] = &sharded.connect(i, (i + 1) % n, period);
    }
  }

  // Each worker starts from a fresh thread-local context and hands its
  // registry back when its last cell is gone.
  sharded.set_worker_prologue([](int) {
    obs::global().metrics.reset();
    obs::global().tracer.set_sink(nullptr);
  });
  sharded.set_worker_epilogue([&worker_metrics](int worker) {
    worker_metrics[static_cast<std::size_t>(worker)].merge_from(
        obs::global().metrics);
  });

  const auto wall_start = std::chrono::steady_clock::now();
  sharded.run();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  stats.rounds = sharded.rounds();
  stats.cross_shard_messages = sharded.cross_shard_messages();
  for (const std::uint64_t count : beacons_received) {
    stats.beacons_received += count;
  }
  obs::MetricsRegistry merged;
  for (obs::MetricsRegistry& registry : worker_metrics) {
    merged.merge_from(registry);
  }
  stats.metrics_json = merged.to_json();
}

}  // namespace netco::scenario::detail
