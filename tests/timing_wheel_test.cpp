// TimingWheel unit tests plus the scheduler's oracle differential: a
// seeded script of schedules, reservations, cancels and pops (with
// callbacks that schedule more events) runs against the Scheduler and
// against a plain list of pending keys, std::sort-ed on
// (at, tie_time, seq) before every pop. The scheduler must pop exactly
// the oracle's minimum every time — the wheel is storage, never an
// ordering change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/timing_wheel.hpp"

namespace burst {
namespace {

using Entry = TimingWheel::Entry;

// Surrenders the wheel's earliest bucket and returns its entries.
std::vector<Entry> pop_bucket(TimingWheel& wheel) {
  std::vector<Entry> out;
  wheel.pop_earliest([&out](const Entry& e) { out.push_back(e); });
  return out;
}

// Drains the wheel through pop_earliest, asserting the surrender-order
// invariant (each batch's minimum `at` is >= every previously surrendered
// entry's `at`), and returns all entries in surrender order.
std::vector<Entry> drain(TimingWheel& wheel) {
  std::vector<Entry> out;
  Time last_batch_max = -1.0;
  while (!wheel.empty()) {
    const std::vector<Entry> batch = pop_bucket(wheel);
    EXPECT_FALSE(batch.empty());
    Time batch_min = kTimeNever;
    Time batch_max = -1.0;
    for (const Entry& e : batch) {
      batch_min = std::min(batch_min, e.at);
      batch_max = std::max(batch_max, e.at);
    }
    // A batch is one level-0 tick; ticks surrender in increasing order,
    // so no later batch may contain an earlier `at`.
    if (last_batch_max >= 0.0) {
      EXPECT_GE(batch_min, last_batch_max)
          << "bucket surrendered out of tick order";
    }
    last_batch_max = std::max(last_batch_max, batch_max);
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

TEST(TimingWheel, SingleEntryRoundTrips) {
  TimingWheel wheel(1e-3);
  EXPECT_TRUE(wheel.empty());
  ASSERT_TRUE(wheel.accepts(0.5));
  wheel.insert({0.5, 0.1, 7, 42});
  EXPECT_EQ(wheel.size(), 1u);
  const std::vector<Entry> out = pop_bucket(wheel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].at, 0.5);
  EXPECT_DOUBLE_EQ(out[0].tie_time, 0.1);
  EXPECT_EQ(out[0].seq, 7u);
  EXPECT_EQ(out[0].sched_slot, 42u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, RejectsCurrentTick) {
  TimingWheel wheel(1e-3);
  // Tick 0 is the cursor's tick: not strictly in the future.
  EXPECT_FALSE(wheel.accepts(0.0));
  EXPECT_FALSE(wheel.accepts(0.9e-3));
  EXPECT_TRUE(wheel.accepts(1.1e-3));
}

TEST(TimingWheel, SurrendersInTickOrderAcrossLevels) {
  // Spread entries over ~5 decades of ticks so every level (and the far
  // list) is populated: granularity 1 µs puts t=2000 s past 64^5 ticks.
  TimingWheel wheel(1e-6);
  Random rng(99);
  std::vector<Time> ats;
  for (int i = 0; i < 2000; ++i) {
    const double mag = rng.uniform(0.0, 9.0);  // 1e-5 .. 1e4 seconds
    const Time at = 1e-5 * std::pow(10.0, mag);
    if (!wheel.accepts(at)) continue;
    wheel.insert({at, 0.0, static_cast<std::uint64_t>(i),
                  static_cast<std::uint32_t>(i)});
    ats.push_back(at);
  }
  ASSERT_GT(ats.size(), 1900u);
  const std::vector<Entry> out = drain(wheel);
  ASSERT_EQ(out.size(), ats.size());
  // Same multiset of times, and coarse levels actually cascaded.
  std::vector<Time> drained;
  for (const Entry& e : out) drained.push_back(e.at);
  std::sort(ats.begin(), ats.end());
  std::vector<Time> sorted = drained;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, ats);
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimingWheel, RemoveUnlinksAndFreesSlot) {
  TimingWheel wheel(1e-3);
  const std::uint32_t a = wheel.insert({0.25, 0.0, 1, 10});
  const std::uint32_t b = wheel.insert({0.25, 0.0, 2, 11});
  const std::uint32_t c = wheel.insert({0.75, 0.0, 3, 12});
  (void)a;
  (void)c;
  wheel.remove(b);
  EXPECT_EQ(wheel.size(), 2u);
  const std::vector<Entry> out = drain(wheel);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].sched_slot, 10u);
  EXPECT_EQ(out[1].sched_slot, 12u);
}

TEST(TimingWheel, RemoveHeadOfBucket) {
  TimingWheel wheel(1e-3);
  wheel.insert({0.25, 0.0, 1, 10});
  // Most-recent insert is the list head; removing it must keep the rest.
  const std::uint32_t head = wheel.insert({0.2504, 0.0, 2, 11});
  wheel.remove(head);
  const std::vector<Entry> out = drain(wheel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sched_slot, 10u);
}

TEST(TimingWheel, CoarseBucketAtTheSurrenderedTickCascadesFirst) {
  // Granularity 1 ms. From cursor 0, tick 64 is a level-1 resident (its
  // bucket's base tick is 64); once the cursor reaches tick 10, another
  // tick-64 entry lands on level 0. The level-1 bucket's base ties the
  // level-0 tick, so it must cascade first: tick 64 surrenders as one
  // bucket holding both entries, the earlier-`at` level-1 one included.
  TimingWheel wheel(1e-3);
  wheel.insert({0.0641, 0.0, 1, 1});  // level 1
  wheel.insert({0.0105, 0.0, 2, 2});  // level 0
  const std::vector<Entry> first = pop_bucket(wheel);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].sched_slot, 2u);
  ASSERT_TRUE(wheel.accepts(0.0649));
  wheel.insert({0.0649, 0.0, 3, 3});  // level 0, same tick as slot 1
  const std::vector<Entry> tick64 = pop_bucket(wheel);
  ASSERT_EQ(tick64.size(), 2u);
  EXPECT_TRUE(wheel.empty());
  // The cursor now sits on tick 64: neither a time in it is accepted.
  EXPECT_FALSE(wheel.accepts(0.0641));
  EXPECT_TRUE(wheel.accepts(0.0651));
}

TEST(TimingWheel, FarEntryIsNotOvertakenByALaterLevelResident) {
  // Granularity 1 ns: a level-4 slot spans 2^24 ticks (~16.8 ms) and the
  // wheel 64^5 ticks (~1.07 s). F at 2.0 s is far from cursor 0; after
  // the cursor reaches 1.0 s, G at 2.001 s fits level 4. F must still
  // surrender first although G is the one already bucketed.
  TimingWheel wheel(1e-9);
  wheel.insert({2.0, 0.0, 1, 1});    // far list
  wheel.insert({1.0, 0.0, 2, 2});    // level 4
  const std::vector<Entry> first = pop_bucket(wheel);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].sched_slot, 2u);
  wheel.insert({2.001, 0.0, 3, 3});  // level 4 from the new cursor
  const std::vector<Entry> rest = drain(wheel);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].sched_slot, 1u);
  EXPECT_EQ(rest[1].sched_slot, 3u);
}

TEST(TimingWheel, FarListRefillsWhenLevelsDrain) {
  // Granularity 1 ns: 64^5 ticks ~= 1.07 s, so seconds-scale deadlines
  // land in the far list and must re-bucket when the levels empty.
  TimingWheel wheel(1e-9);
  wheel.insert({2.0, 0.0, 1, 1});
  wheel.insert({5.0, 0.0, 2, 2});
  wheel.insert({0.5, 0.0, 3, 3});  // in-level
  const std::vector<Entry> out = pop_bucket(wheel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].at, 0.5);
  const std::vector<Entry> rest = drain(wheel);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_DOUBLE_EQ(rest[0].at, 2.0);
  EXPECT_DOUBLE_EQ(rest[1].at, 5.0);
}

// ---------------------------------------------------------------------------
// Oracle differential: the Scheduler against sorted (at, tie_time, seq)
// keys.

constexpr Time kTick = 256e-6;  // the scheduler's wheel granularity
// Beyond 64^5 ticks from the cursor, entries wait in the far list.
constexpr Time kTopSpan = 1073741824.0 * kTick;

struct OracleEvent {
  Time at;
  Time tie;
  std::uint64_t seq;
  int label;
  EventId id;
};

bool key_less(const OracleEvent& a, const OracleEvent& b) {
  return std::tie(a.at, a.tie, a.seq) < std::tie(b.at, b.tie, b.seq);
}

class SchedulerOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerOracle, PopsInSortedKeyOrder) {
  Random rng(GetParam());
  Scheduler sched;
  std::vector<OracleEvent> oracle;  // pending events, sorted before use
  std::vector<EventId> ids;         // every id handed out
  // Reserved (order, tie_time) ranks not yet redeemed.
  std::vector<std::pair<std::uint64_t, Time>> reserved;
  Time now = 0.0;
  std::uint64_t next_seq = 1;  // mirrors the scheduler's rank counter
  int next_label = 0;
  int fired = -1;
  std::uint64_t stale = 0;

  // Deadlines from the same instant out to the far list, with exact
  // k*256 us tick edges (the tick arithmetic's rounding boundary).
  const auto draw_at = [&rng, &now]() -> Time {
    const double kind = rng.uniform();
    if (kind < 0.12) return now;
    if (kind < 0.27) return now + rng.uniform(0.0, kTick / 4);
    if (kind < 0.42) {
      const double k = std::floor(now / kTick) +
                       static_cast<double>(rng.uniform_int(0, 70));
      return std::max(now, k * kTick);
    }
    if (kind < 0.82) return now + rng.uniform(0.0, 0.05);
    if (kind < 0.96) return now + rng.uniform(0.0, 5.0);
    return now + kTopSpan * rng.uniform(1.0, 3.0);
  };

  std::function<void()> spawn_children;
  // Schedules one event through @p how and mirrors it into the oracle.
  // A fifth of the events schedule children when they fire, so events
  // also enter the scheduler from inside a callback, right after the
  // wheel surrendered their tick into the heap.
  const auto add = [&](Time at, Time tie, std::uint64_t seq,
                       const std::function<EventId(SmallFn)>& how) {
    const int label = next_label++;
    const bool spawns = rng.uniform() < 0.2;
    const EventId id = how([&fired, &spawn_children, label, spawns] {
      fired = label;
      if (spawns) spawn_children();
    });
    oracle.push_back({at, tie, seq, label, id});
    ids.push_back(id);
  };
  const auto schedule_plain = [&](Time at) {
    add(at, now, next_seq++, [&](SmallFn fn) {
      return sched.schedule_at(at, std::move(fn), now);
    });
  };
  spawn_children = [&] {
    const auto n = rng.uniform_int(1, 2);
    for (std::int64_t i = 0; i < n; ++i) schedule_plain(draw_at());
  };

  const auto pop_one = [&] {
    std::sort(oracle.begin(), oracle.end(), key_less);
    const OracleEvent expect = oracle.front();
    oracle.erase(oracle.begin());
    ASSERT_EQ(sched.next_time(), expect.at);
    auto ready = sched.take_next();
    ASSERT_EQ(ready.at, expect.at);
    ASSERT_EQ(sched.popped_tie(), expect.tie);
    now = ready.at;
    ready.fn();
    ASSERT_EQ(fired, expect.label) << "popped out of key order at t=" << now;
  };

  for (int step = 0; step < 6000; ++step) {
    const double op = rng.uniform();
    if (op < 0.30) {
      schedule_plain(draw_at());
    } else if (op < 0.38) {
      // As-of: a virtual insertion instant between now and the event.
      const Time at = draw_at();
      const Time tie = now + (at - now) * rng.uniform();
      add(at, tie, next_seq++, [&](SmallFn fn) {
        return sched.schedule_at(at, std::move(fn), tie);
      });
    } else if (op < 0.43) {
      const std::uint64_t order = sched.reserve_order();
      ASSERT_EQ(order, next_seq++);
      reserved.emplace_back(order, now);
    } else if (op < 0.49 && !reserved.empty()) {
      // Redeem a random reservation: an older rank than any event
      // scheduled since it was taken.
      const auto r = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(reserved.size()) - 1));
      const auto [order, tie] = reserved[r];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(r));
      const Time at = draw_at();
      add(at, tie, order, [&](SmallFn fn) {
        return sched.schedule_at_reserved(at, tie, order, std::move(fn));
      });
    } else if (op < 0.58 && !oracle.empty()) {
      // Heap residents are exactly the first size() - wheel_size() keys
      // in order; the next one is the wheel's minimum. Cancel one side.
      std::sort(oracle.begin(), oracle.end(), key_less);
      const std::size_t in_heap = sched.size() - sched.wheel_size();
      std::size_t victim;
      if (rng.uniform() < 0.5 && in_heap < oracle.size()) {
        victim = in_heap;  // the wheel's current minimum
      } else if (in_heap > 0) {
        victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(in_heap) - 1));
      } else {
        victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(oracle.size()) - 1));
      }
      ASSERT_TRUE(sched.pending(oracle[victim].id));
      sched.cancel(oracle[victim].id);
      EXPECT_FALSE(sched.pending(oracle[victim].id));
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (op < 0.62 && !ids.empty()) {
      // Any id ever handed out: fired and cancelled ones are stale.
      const EventId id = ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1))];
      const bool live =
          std::any_of(oracle.begin(), oracle.end(),
                      [id](const OracleEvent& e) { return e.id == id; });
      ASSERT_EQ(sched.pending(id), live);
      if (!live) ++stale;
      sched.cancel(id);
      oracle.erase(std::remove_if(oracle.begin(), oracle.end(),
                                  [id](const OracleEvent& e) {
                                    return e.id == id;
                                  }),
                   oracle.end());
    } else if (!oracle.empty()) {
      pop_one();
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(sched.size(), oracle.size());
  }
  while (!oracle.empty()) {
    pop_one();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.next_time(), kTimeNever);
  EXPECT_EQ(sched.stale_cancels(), stale);
  EXPECT_GT(next_label, 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerOracle,
                         ::testing::Values(11u, 27u, 301u, 4096u, 65537u));

}  // namespace
}  // namespace burst
