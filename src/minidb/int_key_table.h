// Flat open-addressing hash table from INT64 keys to 32-bit payloads: the
// key index of the fused pipeline's hash join build, hash GROUP BY, and
// the UPDATE ... FROM merge whenever the key is one INT64 column (see
// DESIGN.md "Execution pipeline"). Any other key shape stays on the
// executor's generic Row-keyed tables; callers migrate to those when a
// non-INT64 key shows up mid-stream.
//
// Linear probing over a power-of-two slot array kept at most half full,
// grown by doubling (callers charge the growth to governance, so a build
// with few distinct keys never reserves for the row count).
// Keys pass through a 64-bit finalizer first, so keys that differ only in
// their high bits (or share their low bits) still spread across slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sqloop::minidb {

class IntKeyTable {
 public:
  /// Payload value that marks a vacant slot; never stored by callers.
  static constexpr uint32_t kVacant = UINT32_MAX;

  /// Largest payload callers may store (row ordinals, group ordinals).
  static constexpr size_t kMaxPayload = kVacant - 1;

  /// Finds `key`, inserting it with `payload` when absent. Returns the
  /// stored payload (mutable, so callers can chain through it) and
  /// whether this call inserted it.
  std::pair<uint32_t*, bool> FindOrInsert(int64_t key, uint32_t payload) {
    if (slots_.empty()) Rehash(16);
    size_t i = Probe(key);
    if (slots_[i].payload != kVacant) return {&slots_[i].payload, false};
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.size() * 2);
      i = Probe(key);
    }
    slots_[i] = Slot{key, payload};
    ++size_;
    return {&slots_[i].payload, true};
  }

  /// The payload stored for `key`, or kVacant.
  uint32_t Find(int64_t key) const {
    return size_ == 0 ? kVacant : slots_[Probe(key)].payload;
  }

  size_t size() const noexcept { return size_; }

  /// Bytes held by the slot array (what governance charges).
  int64_t FootprintBytes() const noexcept {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot));
  }

  /// Visits every (key, payload) pair, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.payload != kVacant) fn(slot.key, slot.payload);
    }
  }

 private:
  struct Slot {
    int64_t key = 0;
    uint32_t payload = kVacant;
  };

  // MurmurHash3's 64-bit finalizer.
  static size_t Mix(int64_t key) noexcept {
    uint64_t h = static_cast<uint64_t>(key);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  // The slot holding `key`, or the vacant slot where it would go.
  size_t Probe(int64_t key) const {
    size_t i = Mix(key) & mask_;
    while (slots_[i].payload != kVacant && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.payload == kVacant) continue;
      size_t i = Mix(slot.key) & mask_;
      while (slots_[i].payload != kVacant) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace sqloop::minidb
