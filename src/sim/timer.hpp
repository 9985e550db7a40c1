// A restartable one-shot timer, the building block for TCP retransmit and
// delayed-ACK timers.
//
// The owner must outlive the timer's Simulator events; Timer guarantees
// that a cancelled or rescheduled timer never fires its old callback.
//
// Two modes (DESIGN.md §6):
//  * kExact — every schedule()/cancel() maps to a scheduler insert/cancel,
//    the classic implementation. One event per (re)schedule.
//  * kLazy — schedule() just records the new deadline. At most one
//    scheduler event is armed at a time; when it fires it compares the
//    recorded deadline against its own timestamp and either fires the
//    callback, re-arms itself at the (later) deadline, or quietly disarms
//    if the timer was cancelled meanwhile. A deadline that only ever moves
//    forward — the TCP RTO, pushed out by every ACK — costs zero scheduler
//    traffic per move instead of a cancel+insert pair. Observable firing
//    semantics are identical to kExact: the callback runs exactly at the
//    latest scheduled deadline, never after a cancel.
//
// Both modes arm through Simulator::schedule_at, like every other event:
// a deadline past the current tick parks in the scheduler's timing wheel
// in O(1), so 10^5+ armed RTO timers never deepen the heap.
#pragma once

#include <cstdint>
#include <utility>

#include "src/sim/simulator.hpp"
#include "src/sim/small_fn.hpp"

namespace burst {

class Timer {
 public:
  enum class Mode : std::uint8_t { kExact, kLazy };

  /// @p on_fire is invoked each time the timer expires.
  Timer(Simulator& sim, SmallFn on_fire, Mode mode = Mode::kExact)
      : sim_(sim), on_fire_(std::move(on_fire)), mode_(mode) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  /// Hard-cancels in either mode: no scheduler event may outlive the
  /// Timer it points back into.
  ~Timer() { disarm(); }

  /// (Re)schedules the timer @p delay seconds from now, replacing any
  /// pending expiry. In kLazy mode a deadline that moves forward (or
  /// stays put) is O(1) with no scheduler traffic.
  void schedule(Time delay);

  /// Stops the timer; a stopped timer does not fire. In kLazy mode the
  /// armed scheduler event (if any) is left to self-disarm as a no-op.
  void cancel();

  /// True if an expiry is pending.
  bool pending() const { return deadline_ != kTimeNever; }

  /// Absolute expiry time, or kTimeNever if not pending.
  Time expiry() const { return deadline_; }

  Mode mode() const { return mode_; }

 private:
  /// Arms the underlying scheduler event at absolute time @p at.
  void arm(Time at);
  /// Cancels the underlying scheduler event (deadline_ untouched).
  void disarm();
  /// Trampoline run by the scheduler event.
  void on_event();

  Simulator& sim_;
  SmallFn on_fire_;
  Mode mode_;
  EventId id_ = kInvalidEventId;
  Time armed_at_ = kTimeNever;  // when the armed scheduler event runs
  Time deadline_ = kTimeNever;  // when on_fire_ is due (kTimeNever: none)
};

}  // namespace burst
