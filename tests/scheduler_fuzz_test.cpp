// Randomized differential test: the Scheduler (timing wheel feeding a
// current-tick heap) against a naive reference model (sorted map), over
// thousands of interleaved schedule / reserve / cancel / run operations.
//
// The model mirrors the full ordering contract: events pop by
// (at, tie_time, seq), where seq is the scheduler's monotone insertion
// counter — consumed by schedule_at() AND reserve_order() alike — so the
// fused-event machinery (explicit tie times, ranks reserved early and
// redeemed later; see SimplexLink) is exercised against the same oracle
// as plain FIFO scheduling, with deadlines on exact wheel tick edges, in
// the far list, and cancels aimed at the wheel's minimum. The model also
// predicts exactly which
// cancels are stale (target already fired or cancelled), pinning
// Scheduler::stale_cancels() — well-behaved components must never rely
// on the generation-tag no-op.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/scheduler.hpp"

namespace burst {
namespace {

using Key = std::tuple<Time, Time, std::uint64_t>;  // (at, tie_time, seq)

struct Reference {
  std::map<Key, int> pending;  // key -> label
  std::map<EventId, Key> by_id;

  void schedule(Key key, EventId id, int label) {
    pending[key] = label;
    by_id[id] = key;
  }
  bool is_pending(EventId id) const {
    auto it = by_id.find(id);
    return it != by_id.end() && pending.count(it->second) > 0;
  }
  void cancel(EventId id) {
    auto it = by_id.find(id);
    if (it != by_id.end()) pending.erase(it->second);
  }
  int pop() {
    auto it = pending.begin();
    const int label = it->second;
    pending.erase(it);
    return label;
  }
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, MatchesReferenceModel) {
  Random rng(GetParam());
  Scheduler sched;
  Reference ref;
  std::vector<EventId> live_ids;
  // (order, tie_time) pairs reserved but not yet redeemed.
  std::vector<std::pair<std::uint64_t, Time>> reservations;
  std::vector<int> fired;  // labels, in execution order
  Time now = 0.0;
  // Mirrors the scheduler's internal seq counter (starts at 1); validated
  // against reserve_order()'s return values below.
  std::uint64_t model_seq = 1;
  std::uint64_t expected_stale = 0;
  int next_label = 0;

  auto make_fn = [&fired](int label) {
    return [&fired, label] { fired.push_back(label); };
  };

  for (int step = 0; step < 5000; ++step) {
    const double op = rng.uniform();
    if (op < 0.25) {
      // Plain schedule: tie_time == "now", the Simulator default — FIFO.
      const Time at = now + rng.uniform(0.0, 10.0);
      const int label = next_label++;
      const std::uint64_t seq = model_seq++;
      const EventId id = sched.schedule_at(at, make_fn(label), now);
      ref.schedule({at, now, seq}, id, label);
      live_ids.push_back(id);
    } else if (op < 0.40) {
      // Wheel boundaries: an exact k*256 us tick edge (the default wheel
      // granularity, where tick rounding bites), the current instant, or
      // a deadline past the wheel's top level (the far list, ~4.5 months
      // of 256 us ticks away).
      constexpr Time kTick = 256e-6;
      const double kind = rng.uniform();
      Time at = now;
      if (kind < 0.6) {
        const double k = std::floor(now / kTick) +
                         static_cast<double>(rng.uniform_int(0, 300));
        at = std::max(now, k * kTick);
      } else if (kind < 0.9) {
        at = now + 1073741824.0 * kTick * rng.uniform(1.0, 2.0);
      }
      const int label = next_label++;
      const std::uint64_t seq = model_seq++;
      const EventId id = sched.schedule_at(at, make_fn(label), now);
      ref.schedule({at, now, seq}, id, label);
      live_ids.push_back(id);
    } else if (op < 0.50) {
      // Fused-style schedule: an explicit virtual insertion instant in
      // the past splices the event ahead of same-time FIFO peers.
      const Time at = now + rng.uniform(0.0, 10.0);
      const Time tie = rng.uniform(0.0, now == 0.0 ? 1e-9 : now);
      const int label = next_label++;
      const std::uint64_t seq = model_seq++;
      const EventId id = sched.schedule_at(at, make_fn(label), tie);
      ref.schedule({at, tie, seq}, id, label);
      live_ids.push_back(id);
    } else if (op < 0.55) {
      // Reserve a rank now, redeem it later (possibly much later).
      const std::uint64_t order = sched.reserve_order();
      EXPECT_EQ(order, model_seq);  // the counters must track in lockstep
      ++model_seq;
      reservations.emplace_back(order, now);
    } else if (op < 0.62 && !reservations.empty()) {
      // Redeem the oldest reservation: the event must sort as if it had
      // been inserted back when the rank was reserved.
      const auto [order, tie] = reservations.front();
      reservations.erase(reservations.begin());
      const Time at = now + rng.uniform(0.0, 10.0);
      const int label = next_label++;
      const EventId id =
          sched.schedule_at_reserved(at, tie, order, make_fn(label));
      ref.schedule({at, tie, order}, id, label);
      live_ids.push_back(id);
    } else if (op < 0.66 && !ref.pending.empty()) {
      // Heap residents are the first size() - wheel_size() keys; cancel
      // the next one, the wheel's current minimum (or the heap top).
      const std::size_t in_heap = sched.size() - sched.wheel_size();
      auto it = ref.pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           std::min(in_heap, ref.pending.size() - 1)));
      EventId id = kInvalidEventId;
      for (const auto& [eid, key] : ref.by_id) {
        if (key == it->first) id = eid;
      }
      ASSERT_TRUE(sched.pending(id));
      ref.cancel(id);
      sched.cancel(id);
    } else if (op < 0.74 && !live_ids.empty()) {
      // Cancel a random id (possibly already fired -> no-op both sides).
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ids.size()) - 1));
      const EventId id = live_ids[idx];
      EXPECT_EQ(sched.pending(id), ref.is_pending(id));
      if (!sched.pending(id)) ++expected_stale;  // fired/cancelled target
      ref.cancel(id);
      sched.cancel(id);
    } else if (!sched.empty()) {
      // Run one event; the model must agree on which one.
      ASSERT_FALSE(ref.pending.empty());
      const Time t = sched.next_time();
      EXPECT_GE(t, now);
      now = t;
      const int expected = ref.pop();
      auto ready = sched.take_next();
      EXPECT_DOUBLE_EQ(ready.at, t);
      ready.fn();
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expected)
          << "scheduler popped a different event than the model at t=" << t;
    }
    EXPECT_EQ(sched.size(), ref.pending.size());
  }
  // Drain; execution order must match the model to the end.
  while (!sched.empty()) {
    ASSERT_FALSE(ref.pending.empty());
    const int expected = ref.pop();
    sched.take_next().fn();
    EXPECT_EQ(fired.back(), expected);
  }
  EXPECT_TRUE(ref.pending.empty());
  // Every stale cancel was predicted by the model: the counter is exact,
  // so a component double-cancelling (see the traffic sources) shows up.
  EXPECT_EQ(sched.stale_cancels(), expected_stale);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

}  // namespace
}  // namespace burst
