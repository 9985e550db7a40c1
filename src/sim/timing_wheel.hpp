// Hierarchical timing wheel (Varghese & Lauck): where the Scheduler parks
// every event that is not due in the current tick.
//
// Why a wheel at all: the indexed 4-ary heap pays O(log n) per
// insert/cancel where n is the total pending count. A paper run keeps a
// few hundred packet and timer events pending; a mean-field run
// (10^4–10^6 flows) keeps one RTO timer per flow permanently armed. The
// wheel stores all of them in O(1) buckets and hands the heap one tick's
// worth at a time, so the heap only ever orders the current tick
// (DESIGN.md §11; measured in EXPERIMENTS.md).
//
// Structure: kLevels levels of 64 slots each; a level-i slot spans
// 64^i base ticks (tick = floor(at / granularity)). An entry lands on the
// lowest level whose 64-slot window, anchored at the cursor, reaches its
// tick; entries beyond the top level wait in an overflow ("far") list.
// One occupancy bitmap per level makes "next non-empty bucket" a ctz, so
// advancing across long empty gaps never walks slots one by one.
//
// Ordering contract (what keeps every run bit-identical): the wheel
// never fires anything itself. pop_earliest() always surrenders the
// bucket with the smallest base tick — cascading coarse buckets down
// level by level — until a level-0 bucket (a single tick) is due, and
// hands its entries, full (at, tie_time, seq) keys attached, to the
// caller. Residents always sit at ticks strictly after the cursor, and
// tick = floor(at/granularity) is monotone in `at`, so everything the
// wheel has surrendered (or refused, see accepts()) sorts before
// everything it still holds; the heap restores exact order within the
// surrendered tick.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

class TimingWheel {
 public:
  /// Sentinel node index meaning "none".
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static constexpr int kLevels = 5;
  static constexpr std::uint32_t kSlotsPerLevel = 64;

  /// A resident event: the scheduler's full sort key plus the owning
  /// callback slot, carried verbatim so the heap can order surrendered
  /// entries exactly.
  struct Entry {
    Time at;
    Time tie_time;
    std::uint64_t seq;
    std::uint32_t sched_slot;
  };

  /// @p granularity is the level-0 tick width in seconds. The default
  /// (256 µs) is about one bottleneck transmission time at paper scale,
  /// and the wheel spans ~4.5 simulated months before the far list
  /// engages (64^5 ticks).
  explicit TimingWheel(Time granularity = 256e-6);

  /// True if @p at is far enough out to bucket (strictly after the
  /// cursor tick). Events the wheel refuses are due in the current tick:
  /// they sort before every resident, so the caller orders them itself.
  bool accepts(Time at) const { return tick_of(at) > cursor_; }

  /// Inserts an entry (precondition: accepts(entry.at)). Returns a node
  /// handle for remove(). O(1).
  std::uint32_t insert(const Entry& entry);

  /// Unlinks and frees a resident node (true cancel). O(1).
  void remove(std::uint32_t node);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Surrenders the earliest-tick bucket, cascading coarser buckets down
  /// levels as needed, and advances the cursor to that tick: calls
  /// @p sink(const Entry&) once per entry, in no particular order. The
  /// sink must not touch the wheel. Precondition: !empty(); at least one
  /// entry is surrendered. Amortized O(1) per entry over its lifetime
  /// (each node cascades at most kLevels times).
  template <typename Sink>
  void pop_earliest(Sink&& sink) {
    std::uint32_t n = detach_earliest();
    const std::uint32_t first = n;
    for (;;) {
      const Node& node = nodes_[n];
      sink(node.entry);
      --size_;
      if (node.next == kNil) break;
      n = node.next;
    }
    // The bucket's list becomes the head of the free list in one splice.
    nodes_[n].next = free_head_;
    free_head_ = first;
  }

  /// Total entries ever cascaded one level down (diagnostics).
  std::uint64_t cascades() const { return cascades_; }

 private:
  struct Node {
    Entry entry;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // bucket list, or free list when free
    std::uint32_t bucket = 0;   // level * kSlotsPerLevel + slot, or kFarBucket
  };
  static constexpr std::uint32_t kFarBucket = 0xffffffffu;
  /// Ticks at or above this are clamped far-future (guards the
  /// double->uint64 cast against kTimeNever/overflow).
  static constexpr double kMaxTick = 9.0e18;

  std::uint64_t tick_of(Time at) const {
    const double t = at * inv_granularity_;
    if (!(t < kMaxTick)) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(t);
  }

  /// Level whose cursor-anchored window holds @p tick, or kLevels if
  /// only the far list can (a level-i slot index is tick >> 6i; the
  /// window reaches 64 slot indices from the cursor's).
  int level_for(std::uint64_t tick) const;

  /// Links @p node into the bucket for @p tick at @p level (or the far
  /// list for level == kLevels).
  void link(std::uint32_t node, std::uint64_t tick, int level);
  void unlink(std::uint32_t node);

  /// Moves every far-list node back through link(), after advancing the
  /// cursor to the far minimum if every level is empty.
  void refill_from_far();

  /// Cascades until the earliest bucket is a level-0 one, advances the
  /// cursor to its tick, empties it and returns its list head.
  std::uint32_t detach_earliest();

  Time granularity_;
  double inv_granularity_;
  std::uint64_t cursor_ = 0;  // last surrendered (or start) tick
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;  // free nodes, linked through `next`

  // Per-level occupancy bitmap (bit = slot) and bucket list heads.
  std::uint64_t occupied_[kLevels] = {};
  std::uint32_t head_[kLevels * kSlotsPerLevel];

  std::uint32_t far_head_ = kNil;
  /// Lower bound on the far list's ticks (stale-low after removals,
  /// which only costs an early refill).
  std::uint64_t far_min_tick_ = ~std::uint64_t{0};
};

}  // namespace burst
