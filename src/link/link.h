// Point-to-point full-duplex link with serialization delay, propagation
// delay and a drop-tail byte-bounded transmit queue per direction.
//
// This is the ns-style link model: a packet handed to a port occupies the
// transmitter for size*8/rate, then arrives at the peer after the
// propagation delay. If the transmitter is busy, the packet waits in the
// queue; if the queue is full, it is dropped (and counted).
//
// The transmitter is lazy. It keeps the instant it frees up
// (busy_until_) instead of an event that says so: a packet handed to an
// idle channel with an empty queue starts at once, and a drain event is
// scheduled at busy_until_ only while packets wait. So an unqueued packet
// costs one event, its arrival.
//
// A receiver with a fixed ingress pipeline delay (an OpenFlow switch, a
// legacy router) can have that delay folded into the arrival: the channel
// then schedules one event at arrival + delay that enters the receiver's
// pipeline directly (Receiver::enter_pipeline), instead of an arrival
// event that schedules the pipeline event. The receiver keeps its
// arrival-time rules exact itself (see OpenFlowSwitch).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/units.h"
#include "net/packet.h"
#include "obs/observability.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::sim {
class ShardChannel;
}  // namespace netco::sim

namespace netco::link {

/// Per-direction link parameters.
///
/// The default mirrors a Mininet veth pair: effectively unconstrained
/// capacity (10 Gb/s) so that, as in the paper's testbed, the *CPU* models
/// (host, compare, controller) are the binding resources, not the wires.
struct LinkConfig {
  DataRate rate = DataRate::gigabits_per_sec(10);
  sim::Duration propagation = sim::Duration::microseconds(1);
  /// Transmit queue capacity in bytes (drop-tail). ~100 full frames default.
  std::size_t queue_bytes = 150'000;
};

/// Counters for one link direction.
struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dropped_down = 0;     ///< dropped while the link was down
  std::uint64_t dropped_loss = 0;     ///< fault-injected random loss
  std::uint64_t max_queue_bytes = 0;  ///< high-water mark
};

/// The receive side of a channel: one port of a device. device::Node
/// implements it, and Network::connect() binds each direction to its
/// peer's port.
class Receiver {
 public:
  /// A packet fully arrived on `port`; runs at the arrival instant.
  virtual void handle_packet(std::uint32_t port, net::Packet packet) = 0;

  /// Merged delivery: runs at arrival + merged_ingress_delay() in place of
  /// handle_packet() and the pipeline event it would schedule. Only called
  /// on receivers that set a merged ingress delay.
  virtual void enter_pipeline(std::uint32_t port, net::Packet packet);

  /// The fixed ingress pipeline delay a channel folds into its arrival
  /// event, or nullopt for arrival-time delivery. Channels read it when
  /// they transmit, so a change applies to packets sent afterwards.
  [[nodiscard]] std::optional<sim::Duration> merged_ingress_delay()
      const noexcept {
    return merged_delay_;
  }

  /// Merged deliveries scheduled to this receiver that have not entered
  /// its pipeline yet.
  [[nodiscard]] std::uint64_t merged_in_flight() const noexcept {
    return merged_in_flight_;
  }

 protected:
  Receiver() = default;
  ~Receiver() = default;

  void set_merged_ingress_delay(std::optional<sim::Duration> delay) noexcept {
    merged_delay_ = delay;
  }

 private:
  friend class Channel;
  std::optional<sim::Duration> merged_delay_;
  std::uint64_t merged_in_flight_ = 0;
};

/// One direction of a link: a serializing transmitter + delivery to the
/// receiving port.
///
/// Owned by Link; exposed so devices can inspect stats. The receiver is
/// bound at wiring time by the device layer.
class Channel {
 public:
  using DeliverFn = std::function<void(net::Packet)>;

  Channel(sim::Simulator& simulator, LinkConfig config)
      : simulator_(simulator),
        config_(config),
        obs_(&obs::global()),
        queue_depth_(&obs_->metrics.histogram(
            "link.queue_depth_bytes", obs::default_queue_depth_buckets())),
        drop_counter_(&obs_->metrics.counter("link.dropped_packets")) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Binds the receive side to `port` of `receiver`. Must be called
  /// exactly once before traffic.
  void bind_sink(Receiver& receiver, std::uint32_t port) noexcept {
    receiver_ = &receiver;
    receiver_port_ = port;
  }

  /// Cross-shard mode: the receive side lives on another simulation shard
  /// (sim/shard.h), so deliveries travel over `channel` instead of the
  /// local event queue. `remote_sink` executes on the *receiving* shard's
  /// worker thread and must only touch that shard's components. The
  /// link's propagation delay must cover the channel's conservative
  /// lookahead (asserted) — propagation is exactly what makes the link a
  /// safe shard-crossing point. Mutually exclusive with bind_sink().
  void bind_remote(sim::ShardChannel& channel, DeliverFn remote_sink);

  /// Hands a packet to the transmitter (queues or drops as needed).
  void send(net::Packet packet);

  /// Failure injection: a downed channel silently discards everything
  /// handed to it (packets already in flight still arrive — photons do
  /// not return). Bring it back up with set_down(false).
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Fault injection: each packet handed to the channel is independently
  /// discarded with probability `rate` (draws come from the simulator's
  /// seeded RNG, so runs stay bit-reproducible). 0 disables.
  void set_loss(double rate) noexcept { loss_rate_ = rate; }
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

  /// Fault injection: additional one-way delay on top of the configured
  /// propagation (a latency ramp mid-run). Zero disables.
  void set_extra_latency(sim::Duration extra) noexcept { extra_latency_ = extra; }
  [[nodiscard]] sim::Duration extra_latency() const noexcept {
    return extra_latency_;
  }

  /// Name stamped on this channel's trace records ("s1->r2"). Defaults to
  /// "link"; Network::connect() labels both directions from the node names.
  void set_label(std::string label) { label_ = std::move(label); }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Counters for this direction.
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }

  /// Current queue occupancy in bytes (excludes the packet on the wire).
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return queued_bytes_;
  }

  /// The configuration this channel runs with.
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

 private:
  void start_transmission(net::Packet packet);
  /// Starts the head of the queue once the transmitter frees up; re-arms
  /// itself while packets wait.
  void drain();

  sim::Simulator& simulator_;
  LinkConfig config_;
  obs::Observability* obs_;
  obs::Histogram* queue_depth_;   ///< "link.queue_depth_bytes"
  obs::Counter* drop_counter_;    ///< "link.dropped_packets"
  Receiver* receiver_ = nullptr;
  std::uint32_t receiver_port_ = 0;
  sim::ShardChannel* remote_ = nullptr;
  DeliverFn remote_sink_;
  std::deque<net::Packet> queue_;
  std::size_t queued_bytes_ = 0;
  /// When the packet on the wire finishes serializing. A drain event is
  /// pending at this instant exactly while queue_ is non-empty.
  sim::TimePoint busy_until_;
  bool down_ = false;
  double loss_rate_ = 0.0;
  sim::Duration extra_latency_ = sim::Duration::zero();
  std::string label_ = "link";
  LinkStats stats_;
};

/// A full-duplex link: two independent Channels.
class Link {
 public:
  Link(sim::Simulator& simulator, LinkConfig config)
      : forward_(simulator, config), reverse_(simulator, config) {}

  /// Takes both directions down/up (fiber cut semantics).
  void set_down(bool down) noexcept {
    forward_.set_down(down);
    reverse_.set_down(down);
  }

  /// Symmetric fault injection on both directions.
  void set_loss(double rate) noexcept {
    forward_.set_loss(rate);
    reverse_.set_loss(rate);
  }
  void set_extra_latency(sim::Duration extra) noexcept {
    forward_.set_extra_latency(extra);
    reverse_.set_extra_latency(extra);
  }

  /// Labels both directions from the endpoint names ("a->b" / "b->a") so
  /// drop/loss trace records are attributable to the owning link.
  void set_labels(const std::string& a, const std::string& b) {
    forward_.set_label(a + "->" + b);
    reverse_.set_label(b + "->" + a);
  }

  /// Direction A→B.
  [[nodiscard]] Channel& forward() noexcept { return forward_; }
  /// Direction B→A.
  [[nodiscard]] Channel& reverse() noexcept { return reverse_; }

  [[nodiscard]] const Channel& forward() const noexcept { return forward_; }
  [[nodiscard]] const Channel& reverse() const noexcept { return reverse_; }

 private:
  Channel forward_;
  Channel reverse_;
};

}  // namespace netco::link
