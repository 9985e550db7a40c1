#include "src/sim/timing_wheel.hpp"

#include <algorithm>
#include <cassert>

namespace burst {

namespace {

inline std::uint64_t rotr64(std::uint64_t x, std::uint32_t r) {
  return r == 0 ? x : (x >> r) | (x << (64u - r));
}

}  // namespace

TimingWheel::TimingWheel(Time granularity)
    : granularity_(granularity), inv_granularity_(1.0 / granularity) {
  assert(granularity > 0.0);
  std::fill(std::begin(head_), std::end(head_), kNil);
}

int TimingWheel::level_for(std::uint64_t tick) const {
  assert(tick >= cursor_);
  for (int i = 0; i < kLevels; ++i) {
    const std::uint32_t shift = 6u * static_cast<std::uint32_t>(i);
    // The level-i window reaches 64 slot indices from the cursor's slot;
    // comparing slot indices (not tick deltas) keeps a slot unambiguous —
    // no two residents of one slot can come from different revolutions.
    if ((tick >> shift) - (cursor_ >> shift) < kSlotsPerLevel) return i;
  }
  return kLevels;
}

void TimingWheel::link(std::uint32_t n, std::uint64_t tick, int level) {
  Node& node = nodes_[n];
  if (level >= kLevels) {
    node.bucket = kFarBucket;
    node.next = far_head_;
    if (far_head_ != kNil) nodes_[far_head_].prev = n;
    far_head_ = n;
    far_min_tick_ = std::min(far_min_tick_, tick);
    return;
  }
  const std::uint32_t shift = 6u * static_cast<std::uint32_t>(level);
  const std::uint32_t slot =
      static_cast<std::uint32_t>(tick >> shift) & (kSlotsPerLevel - 1);
  const std::uint32_t b =
      static_cast<std::uint32_t>(level) * kSlotsPerLevel + slot;
  node.bucket = b;
  node.next = head_[b];
  if (head_[b] != kNil) nodes_[head_[b]].prev = n;
  head_[b] = n;
  occupied_[level] |= std::uint64_t{1} << slot;
}

void TimingWheel::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else if (node.bucket == kFarBucket) {
    far_head_ = node.next;
  } else {
    head_[node.bucket] = node.next;
  }
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  if (node.bucket != kFarBucket && head_[node.bucket] == kNil) {
    occupied_[node.bucket / kSlotsPerLevel] &=
        ~(std::uint64_t{1} << (node.bucket % kSlotsPerLevel));
  }
}

std::uint32_t TimingWheel::insert(const Entry& entry) {
  const std::uint64_t tick = tick_of(entry.at);
  assert(tick > cursor_ && "insert requires accepts(at)");
  std::uint32_t n = free_head_;
  if (n != kNil) {
    free_head_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[n];
  node.entry = entry;
  node.prev = kNil;
  link(n, tick, level_for(tick));
  ++size_;
  return n;
}

void TimingWheel::remove(std::uint32_t n) {
  unlink(n);
  nodes_[n].next = free_head_;
  free_head_ = n;
  --size_;
}

void TimingWheel::refill_from_far() {
  if (std::none_of(std::begin(occupied_), std::end(occupied_),
                   [](std::uint64_t bits) { return bits != 0; })) {
    // Nothing is bucketed: jump the cursor straight to the far minimum.
    std::uint64_t min_tick = ~std::uint64_t{0};
    for (std::uint32_t n = far_head_; n != kNil; n = nodes_[n].next) {
      min_tick = std::min(min_tick, tick_of(nodes_[n].entry.at));
    }
    if (cursor_ < min_tick) cursor_ = min_tick;
  }
  std::uint32_t n = far_head_;
  far_head_ = kNil;
  far_min_tick_ = ~std::uint64_t{0};
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    nodes_[n].prev = kNil;
    const std::uint64_t tick = tick_of(nodes_[n].entry.at);
    link(n, tick, level_for(tick));
    n = next;
  }
}

std::uint32_t TimingWheel::detach_earliest() {
  assert(size_ > 0 && "pop_earliest on empty wheel");
  for (;;) {
    // The earliest bucket by base tick. Ties go to the coarser level (and
    // the far list beats every level): a coarse bucket whose base equals
    // a finer bucket's tick may hold entries of that very tick, so it
    // must cascade first — a surrendered tick leaves no resident at or
    // before it.
    int best_level = -1;
    std::uint64_t best_base = ~std::uint64_t{0};
    std::uint32_t best_bucket = 0;
    for (int i = 0; i < kLevels; ++i) {
      if (!occupied_[i]) continue;
      const std::uint32_t shift = 6u * static_cast<std::uint32_t>(i);
      const std::uint64_t cur_index = cursor_ >> shift;
      const std::uint32_t p =
          static_cast<std::uint32_t>(cur_index) & (kSlotsPerLevel - 1);
      const std::uint32_t d = static_cast<std::uint32_t>(
          __builtin_ctzll(rotr64(occupied_[i], p)));
      const std::uint64_t base = (cur_index + d) << shift;
      if (base <= best_base) {
        best_level = i;
        best_base = base;
        best_bucket = static_cast<std::uint32_t>(i) * kSlotsPerLevel +
                      ((p + d) & (kSlotsPerLevel - 1));
      }
    }
    if (far_head_ != kNil && far_min_tick_ <= best_base) {
      // A far entry may be due no later than every bucket: re-bucket the
      // far list against the current cursor (jumping the cursor first if
      // every level is empty) and look again.
      refill_from_far();
      continue;
    }
    // Surrender (or cascade) strictly in base-tick order; the cursor
    // never retreats, so tick >= cursor_ stays invariant for residents.
    if (cursor_ < best_base) cursor_ = best_base;
    std::uint32_t n = head_[best_bucket];
    head_[best_bucket] = kNil;
    occupied_[best_level] &=
        ~(std::uint64_t{1} << (best_bucket % kSlotsPerLevel));
    // A level-0 bucket is a single tick: pop_earliest hands its entries
    // to the caller, whose heap restores exact (at, tie_time, seq) order.
    if (best_level == 0) return n;
    // Coarse bucket: redistribute one level (or more) down. Each entry's
    // slot-index distance from the new cursor is < 64 at the level below,
    // so the cascade strictly descends and terminates.
    while (n != kNil) {
      const std::uint32_t next = nodes_[n].next;
      nodes_[n].prev = kNil;
      const std::uint64_t tick = tick_of(nodes_[n].entry.at);
      const int level = level_for(tick);
      assert(level < best_level);
      link(n, tick, level);
      ++cascades_;
      n = next;
    }
  }
}

}  // namespace burst
