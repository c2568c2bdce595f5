#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace netco::sim {

namespace {

/// Compaction engages only past this raw heap size: small queues purge
/// their tombstones lazily at pop for free, and a fixed floor keeps the
/// amortized analysis trivial (a compaction of n entries is paid for by
/// the >= n/2 cancellations that triggered it).
constexpr std::size_t kCompactionFloor = 64;

}  // namespace

void EventHandle::cancel() noexcept {
  if (auto slab = slab_.lock()) {
    NETCO_DASSERT(slab->owned_by_caller());
    // The slot itself stays reserved until the tombstone pops; only the
    // liveness accounting changes here.
    if (slab->invalidate(slot_, generation_)) --slab->live;
  }
}

bool EventHandle::pending() const noexcept {
  const auto slab = slab_.lock();
  if (slab == nullptr) return false;
  NETCO_DASSERT(slab->owned_by_caller());
  return slab->matches(slot_, generation_);
}

Simulator::Simulator(std::uint64_t seed)
    : slab_(std::make_shared<detail::CancelSlab>()), rng_(seed) {}

EventHandle Simulator::schedule_at(TimePoint at, Callback&& fn) {
  NETCO_ASSERT_MSG(at >= now_, "cannot schedule events in the past");
  NETCO_ASSERT(static_cast<bool>(fn));
  // Cancel-heavy workloads (probe churn, failover rewires) retire events
  // faster than they pop: purge the debt once tombstones outnumber live
  // events, so the raw heap stays within 2x the live population (plus the
  // floor) no matter how hot the cancellation path runs.
  if (queue_.size() >= kCompactionFloor &&
      queue_.size() - slab_->live > slab_->live) {
    compact();
  }
  const std::uint32_t slot = slab_->acquire();
  const std::uint64_t generation = slab_->generation[slot];
  ++slab_->live;
  callbacks_.cover(slot);
  callbacks_[slot] = std::move(fn);
  queue_.push_back(detail::QueueKey{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return EventHandle{slab_, slot, generation};
}

EventHandle Simulator::schedule_after(Duration delay, Callback&& fn) {
  NETCO_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::compact() {
  const auto keep_end = std::remove_if(
      queue_.begin(), queue_.end(), [this](const detail::QueueKey& key) {
        if (slab_->holds_live_event(key.slot)) return false;
        callbacks_[key.slot].reset();
        slab_->release(key.slot);
        return true;
      });
  queue_.erase(keep_end, queue_.end());
  // (at, seq) is a total order, so the heap rebuild cannot perturb pop
  // order: runs stay bit-identical to the lazy-purge-only build.
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  ++compactions_;
}

bool Simulator::step(TimePoint deadline) {
  while (!queue_.empty()) {
    const detail::QueueKey top = queue_.front();
    const bool live = slab_->holds_live_event(top.slot);
    // A tombstone (cancelled while queued) is purged regardless of the
    // deadline — it will never run, and draining the run now keeps the
    // queue lean.
    if (live && top.at > deadline) return false;
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    Callback& fn = callbacks_[top.slot];
    if (!live) {
      fn.reset();
      slab_->release(top.slot);
      continue;
    }
    // Fired: handles stop reporting pending. The callback runs in place
    // (the store's chunks never move, so events it schedules cannot
    // invalidate it); its slot recycles only once it has returned.
    ++slab_->generation[top.slot];
    --slab_->live;
    now_ = top.at;
    order_ = top.seq + 1;
    ++executed_;
    fn();
    fn.reset();
    slab_->release(top.slot);
    return true;
  }
  return false;
}

void Simulator::run() {
  NETCO_DASSERT(slab_->owned_by_caller());
  stopped_ = false;
  while (!stopped_ && step(TimePoint::from_ns(INT64_MAX))) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  NETCO_ASSERT(deadline >= now_);
  NETCO_DASSERT(slab_->owned_by_caller());
  stopped_ = false;
  while (!stopped_ && step(deadline)) {
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    order_ = UINT64_MAX;
  }
}

}  // namespace netco::sim
