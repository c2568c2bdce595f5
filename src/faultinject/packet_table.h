// Flat hash map keyed by (dense id, packet id), for the trace checker.
//
// QuorumTraceChecker keeps per-packet state under a small dense id (an
// interned component or egress group) — a vote bitmask per live cache
// entry, a last-release time per recent egress. A node-based map of maps
// paid a hash of the component string, two bucket walks and a heap node
// per packet; this is one open-addressed array instead: linear probing,
// at most half full, backward-shift deletion (no tombstones, so erase-
// heavy churn never degrades probes). Packet ids are content hashes, but
// callers may use small integers too, so the key is mixed before use.
//
// Allocation is lazy: an empty table holds no storage until the first
// insert, so constructing a checker stays free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace netco::faultinject {

template <typename V>
class PacketTable {
 public:
  /// The value under (id, packet), or nullptr.
  [[nodiscard]] V* find(std::uint32_t id, std::uint64_t packet) noexcept {
    const std::size_t i = index_of(id, packet);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// The value under (id, packet), value-initialized if absent.
  V& operator()(std::uint32_t id, std::uint64_t packet) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(id, packet);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.tag == 0) {
        slot = Slot{packet, V{}, id + 1};
        ++size_;
        return slot.value;
      }
      if (slot.tag == id + 1 && slot.packet == packet) return slot.value;
    }
  }

  /// Removes (id, packet) if present.
  void erase(std::uint32_t id, std::uint64_t packet) noexcept {
    const std::size_t i = index_of(id, packet);
    if (i != kAbsent) erase_slot(i);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t packet = 0;
    V value{};
    std::uint32_t tag = 0;  ///< id + 1; 0 marks an empty slot
  };

  [[nodiscard]] std::size_t home(std::uint32_t id,
                                 std::uint64_t packet) const noexcept {
    std::uint64_t h = packet ^ (std::uint64_t{id} * 0x9E3779B97F4A7C15ULL);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & mask_;
  }

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] std::size_t index_of(std::uint32_t id,
                                     std::uint64_t packet) const noexcept {
    if (slots_.empty()) return kAbsent;
    for (std::size_t i = home(id, packet);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.tag == 0) return kAbsent;
      if (slot.tag == id + 1 && slot.packet == packet) return i;
    }
  }

  /// Empties slot `i`, then walks the probe run after it and shifts back
  /// every entry whose home lies at or before the hole.
  void erase_slot(std::size_t i) noexcept {
    --size_;
    for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& next = slots_[j];
      if (next.tag == 0) break;
      const std::size_t want = home(next.tag - 1, next.packet);
      if (((j - want) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(next);
        i = j;
      }
    }
    slots_[i] = Slot{};
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? 64 : 2 * slots_.size()));
    mask_ = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.tag == 0) continue;
      std::size_t i = home(slot.tag - 1, slot.packet);
      while (slots_[i].tag != 0) i = (i + 1) & mask_;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace netco::faultinject
