// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace netco::sim {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ((Duration::seconds(1) + Duration::milliseconds(500)).ms(), 1500.0);
  EXPECT_EQ((Duration::microseconds(10) - Duration::microseconds(4)).us(), 6.0);
  EXPECT_EQ((Duration::milliseconds(2) * 3).ms(), 6.0);
  EXPECT_EQ((Duration::milliseconds(9) / 3).ms(), 3.0);
  EXPECT_EQ((-Duration::seconds(1)).sec(), -1.0);
}

TEST(Time, SecondsFractionalRounds) {
  EXPECT_EQ(Duration::seconds_f(0.5).ms(), 500.0);
  EXPECT_EQ(Duration::seconds_f(1e-9).ns(), 1);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(2);
  EXPECT_EQ(t.sec(), 2.0);
  EXPECT_EQ((t - TimePoint::origin()).sec(), 2.0);
  EXPECT_EQ((t - Duration::seconds(1)).sec(), 1.0);
}

TEST(Time, TransmissionTimeExact) {
  // 1500 bytes at 1 Gb/s = 12 µs.
  EXPECT_EQ(transmission_time(DataRate::gigabits_per_sec(1), 1500).us(), 12.0);
}

TEST(Time, TransmissionTimeRoundsUpNonZero) {
  // 1 byte at 10 Gb/s = 0.8 ns → rounds to 1 ns, never 0.
  EXPECT_EQ(transmission_time(DataRate::gigabits_per_sec(10), 1).ns(), 1);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_after(Duration::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(3).ns());
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] {
    ++fired;
    sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(2).ns());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  sim.schedule_after(Duration::milliseconds(10), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(5));
  EXPECT_EQ(fired, 1);
  // Clock advances to exactly the deadline even with no event there.
  EXPECT_EQ(sim.now().ns(), Duration::milliseconds(5).ns());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  EventHandle handle =
      sim.schedule_after(Duration::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle handle =
      sim.schedule_after(Duration::milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(Duration::milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i)
    sim.schedule_after(Duration::milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, OrderPlacesActionsAmongSameInstantEvents) {
  Simulator sim;
  EXPECT_EQ(sim.order(), 0u);  // before the first event
  // Three events at t=5 get seqs 0, 1, 2. Inside the middle one, order()
  // is 2: an action taken there came after the event keyed seq 0 and
  // before the one keyed seq 2 (order() <= 2).
  std::uint64_t inside = 0;
  sim.schedule_at(TimePoint::from_ns(5), [] {});
  sim.schedule_at(TimePoint::from_ns(5), [&] { inside = sim.order(); });
  sim.schedule_at(TimePoint::from_ns(5), [] {});
  sim.run_until(TimePoint::from_ns(5));
  EXPECT_EQ(inside, 2u);
  EXPECT_EQ(sim.order(), 3u);  // last run: seq 2
  // Moving the clock past the last event puts every event at now() behind.
  sim.run_until(TimePoint::from_ns(9));
  EXPECT_EQ(sim.order(), UINT64_MAX);
}

TEST(Simulator, EventsPendingExcludesCancelledTombstones) {
  Simulator sim;
  EventHandle a = sim.schedule_after(Duration::milliseconds(1), [] {});
  EventHandle b = sim.schedule_after(Duration::milliseconds(2), [] {});
  sim.schedule_after(Duration::milliseconds(3), [] {});
  EXPECT_EQ(sim.events_pending(), 3u);
  EXPECT_EQ(sim.queue_size(), 3u);

  b.cancel();
  EXPECT_EQ(sim.events_pending(), 2u) << "tombstone counted as pending";
  EXPECT_EQ(sim.queue_size(), 3u) << "tombstone purged eagerly";
  b.cancel();  // idempotent: must not double-decrement
  EXPECT_EQ(sim.events_pending(), 2u);

  a.cancel();
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(Simulator, TombstoneRunsPurgeLazilyAtPop) {
  Simulator sim;
  // A run of cancelled events ahead of the deadline plus one live event
  // far beyond it: stepping to the deadline must drain the tombstones
  // even though the live event stays queued.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        sim.schedule_after(Duration::milliseconds(1 + i), [] {}));
  }
  bool late_ran = false;
  sim.schedule_after(Duration::seconds(1), [&] { late_ran = true; });
  for (auto& handle : handles) handle.cancel();

  sim.run_until(TimePoint::origin() + Duration::milliseconds(100));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.queue_size(), 1u) << "tombstone run not purged at pop";
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, SlotReuseKeepsOldHandlesDead) {
  Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  EventHandle first =
      sim.schedule_after(Duration::milliseconds(1), [&] { first_ran = true; });
  first.cancel();
  sim.run();  // pops the tombstone, recycling its slot
  // The recycled slot now carries a later generation.
  EventHandle second =
      sim.schedule_after(Duration::milliseconds(1), [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  first.cancel();  // must not cancel the new occupant of the slot
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, CancelAfterSimulatorDeathIsNoop) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.schedule_after(Duration::milliseconds(1), [] {});
    EXPECT_TRUE(handle.pending());
  }
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(Simulator, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto value = std::make_unique<int>(41);
  int observed = 0;
  sim.schedule_after(Duration::milliseconds(1),
                     [v = std::move(value)] { });
  sim.schedule_after(Duration::milliseconds(2),
                     [p = std::make_unique<int>(7), &observed] {
                       observed = *p;
                     });
  sim.run();
  EXPECT_EQ(observed, 7);
}

TEST(Simulator, OversizedCapturesFallBackToHeap) {
  Simulator sim;
  // A capture larger than Callback's inline budget must still work.
  std::array<std::uint64_t, 16> big{};
  big.fill(3);
  static_assert(sizeof(big) > Callback::kInlineBytes);
  std::uint64_t sum = 0;
  sim.schedule_after(Duration::milliseconds(1), [big, &sum] {
    for (const auto v : big) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 48u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::zero(), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ns(), 0);
}

TEST(Simulator, CancelStormKeepsQueueBounded) {
  Simulator sim;
  // Probe-churn workload: a core of long-lived events, then thousands of
  // schedule+cancel cycles against far-future deadlines (health probes
  // being rewired). Without threshold compaction the raw heap grows with
  // the total cancel count; with it, queue_size() must stay within a
  // constant factor of the live population.
  std::vector<EventHandle> live;
  for (int i = 0; i < 32; ++i) {
    live.push_back(sim.schedule_after(Duration::seconds(3600 + i), [] {}));
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<EventHandle> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(sim.schedule_after(Duration::seconds(60 + i), [] {}));
    }
    for (auto& handle : batch) handle.cancel();
  }
  EXPECT_GE(sim.compactions(), 1u) << "cancel storm never tripped compaction";
  EXPECT_EQ(sim.events_pending(), 32u);
  // Bound: live population doubled, plus the engagement floor.
  EXPECT_LE(sim.queue_size(), 2 * sim.events_pending() + 64)
      << "tombstone debt grew without bound";
}

TEST(Simulator, CompactionPreservesExecutionOrder) {
  // The same interleaved schedule/cancel program with the storm that
  // forces compactions must execute surviving events in the identical
  // (time, scheduling order) sequence as a quiet run.
  const auto program = [](Simulator& sim, bool storm) {
    std::vector<int> order;
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 40; ++i) {
      // Same-instant pairs to exercise the seq tie-break across rebuilds.
      sim.schedule_after(Duration::milliseconds(1 + i / 2),
                         [&order, i] { order.push_back(i); });
      doomed.push_back(
          sim.schedule_after(Duration::milliseconds(5 + i), [] {}));
    }
    for (auto& handle : doomed) handle.cancel();
    if (storm) {
      for (int round = 0; round < 50; ++round) {
        std::vector<EventHandle> batch;
        for (int i = 0; i < 80; ++i) {
          batch.push_back(sim.schedule_after(Duration::seconds(9), [] {}));
        }
        for (auto& handle : batch) handle.cancel();
      }
    }
    sim.run();
    return std::make_pair(order, sim.compactions());
  };
  Simulator quiet;
  Simulator stormy;
  const auto [quiet_order, quiet_compactions] = program(quiet, false);
  const auto [storm_order, storm_compactions] = program(stormy, true);
  EXPECT_EQ(quiet_compactions, 0u);
  EXPECT_GE(storm_compactions, 1u);
  EXPECT_EQ(quiet_order, storm_order)
      << "heap rebuild perturbed the (at, seq) pop order";
}

// The slot store: the heap holds POD keys only, callbacks are parked by
// slot. use_count probes show when a callback's captures are destroyed.

static_assert(std::is_trivially_copyable_v<detail::QueueKey>,
              "heap sifts must move plain bytes, never a Callback");
static_assert(sizeof(detail::QueueKey) <= 24);

TEST(SimulatorSlotStore, CancelledCapturesReleaseWhenTombstonePops) {
  Simulator sim;
  const auto probe = std::make_shared<int>(0);
  EventHandle doomed =
      sim.schedule_after(Duration::milliseconds(1), [probe] {});
  sim.schedule_after(Duration::milliseconds(2), [] {});
  doomed.cancel();
  EXPECT_EQ(probe.use_count(), 2) << "tombstone dropped its captures early";
  // The tombstone sits at the top: it is purged even though the deadline
  // stops short of every event.
  sim.run_until(TimePoint::origin() + Duration::microseconds(1));
  EXPECT_EQ(sim.queue_size(), 1u);
  EXPECT_EQ(probe.use_count(), 1) << "purged tombstone kept its captures";
}

TEST(SimulatorSlotStore, CompactionReleasesCancelledCaptures) {
  Simulator sim;
  const auto probe = std::make_shared<int>(0);
  for (int i = 0; i < 32; ++i) {
    sim.schedule_after(Duration::seconds(3600 + i), [] {});
  }
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 64; ++i) {
    doomed.push_back(
        sim.schedule_after(Duration::seconds(60 + i), [probe] {}));
  }
  for (auto& handle : doomed) handle.cancel();
  EXPECT_EQ(probe.use_count(), 65);
  EXPECT_EQ(sim.compactions(), 0u);
  // 64 tombstones against 32 live events: the next schedule compacts.
  sim.schedule_after(Duration::seconds(1), [] {});
  EXPECT_EQ(sim.compactions(), 1u);
  EXPECT_EQ(sim.queue_size(), 33u);
  EXPECT_EQ(probe.use_count(), 1) << "compaction kept tombstone captures";
}

TEST(SimulatorSlotStore, DestroyedSimulatorReleasesEveryCapture) {
  const auto probe = std::make_shared<int>(0);
  EventHandle survivor;
  {
    Simulator sim;
    for (int i = 0; i < 600; ++i) {
      EventHandle handle = sim.schedule_after(
          Duration::microseconds(1 + i % 50), [probe] {});
      if (i % 3 == 0) handle.cancel();
      survivor = handle;
    }
    std::array<std::uint64_t, 16> big{};
    sim.schedule_after(Duration::seconds(1), [probe, big] {
      static_cast<void>(big);
    });
    sim.run_until(TimePoint::origin() + Duration::microseconds(10));
    EXPECT_GT(probe.use_count(), 1);
  }
  // A handle that outlives its simulator must not keep captures alive.
  EXPECT_FALSE(survivor.pending());
  EXPECT_EQ(probe.use_count(), 1) << "pending captures outlived the simulator";
}

TEST(SimulatorSlotStore, CallbackThatGrowsTheStoreStaysValid) {
  Simulator sim;
  constexpr int kChildren = 1500;
  const auto probe = std::make_shared<int>(0);
  std::vector<int> fired;
  std::uint64_t tag_after = 0;
  long uses_after = 0;
  sim.schedule_after(
      Duration::milliseconds(1),
      [&sim, &fired, &tag_after, &uses_after, probe,
       tag = std::uint64_t{0xC0FFEE}] {
        for (int i = 0; i < kChildren; ++i) {
          sim.schedule_after(Duration::nanoseconds(i % 7),
                             [&fired, i, probe] { fired.push_back(i); });
        }
        // The store grew beneath this running callback; its own captures
        // must still read back intact.
        tag_after = tag;
        uses_after = probe.use_count();
      });
  sim.run();
  EXPECT_EQ(tag_after, 0xC0FFEEu);
  EXPECT_EQ(uses_after, 2 + kChildren);
  // Children fire by (delay, scheduling order).
  std::vector<int> expected;
  for (int delay = 0; delay < 7; ++delay) {
    for (int i = delay; i < kChildren; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.events_executed(), 1u + kChildren);
  EXPECT_EQ(probe.use_count(), 1);
}

TEST(SimulatorSlotStore, OversizedCapturesGoThroughTheStore) {
  Simulator sim;
  const auto probe = std::make_shared<int>(0);
  std::array<std::uint64_t, 16> big{};
  big.fill(5);
  static_assert(sizeof(big) > Callback::kInlineBytes);
  std::uint64_t sum = 0;
  sim.schedule_after(Duration::milliseconds(2), [big, probe, &sum] {
    for (const auto v : big) sum += v;
  });
  EventHandle doomed = sim.schedule_after(
      Duration::milliseconds(1), [big, probe, &sum] { sum += big[0]; });
  EXPECT_EQ(probe.use_count(), 3);
  doomed.cancel();
  sim.run_until(TimePoint::origin() + Duration::microseconds(1));
  EXPECT_EQ(probe.use_count(), 2) << "oversized tombstone kept its captures";
  sim.run();
  EXPECT_EQ(sum, 80u);
  EXPECT_EQ(probe.use_count(), 1) << "oversized callback outlived its firing";
}

/// Counts its own move constructions.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* counter) : moves(counter) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  void operator()() const {}
};

TEST(SimulatorSlotStore, CallbackMovesOnlyIntoItsSlot) {
  Simulator sim;
  int moves = 0;
  // One move builds the Callback, one parks it in its slot.
  sim.schedule_after(Duration::milliseconds(50), MoveCounter(&moves));
  EXPECT_EQ(moves, 2);
  // Heap sifts past it, through schedule and pop, never touch it.
  for (int i = 0; i < 200; ++i) {
    sim.schedule_after(Duration::microseconds(200 - i), [] {});
  }
  sim.run();
  EXPECT_EQ(moves, 2) << "a queued or firing callback was relocated";
}

}  // namespace
}  // namespace netco::sim
