// Structured event tracing: a per-simulation TraceSink that components
// feed typed records into through raw-pointer taps.
//
// Design constraints (DESIGN.md "Observability"):
//  * Zero cost when off. Every tap is a single null-pointer check on a
//    member the component already has in cache; no virtual dispatch, no
//    std::function, no allocation on the untraced path. The bit-identity
//    pins (tests/result_identity_test.cpp) and the packet-path CI gate
//    hold with tracing wired in because the disabled branch is one
//    predictable compare.
//  * No feedback into the simulation. Emitting a record never schedules
//    an event, never consumes RNG, never mutates component state — a
//    traced run's ExperimentResult is bit-identical to an untraced one
//    (tests/obs_trace_test.cpp proves it differentially).
//  * Bounded memory. Records land in a fixed-capacity ring (late
//    aggregates in a second one); when a run outgrows it, the oldest
//    records are overwritten and counted, never reallocated mid-run. The
//    ring reserves its capacity up front but only as address space: pages
//    fault in as records land, so a traced run pays for the records it
//    holds, not for the capacity.
//
// Exports: JSONL (one record per line, greppable) and Chrome trace-event
// JSON (the `{"traceEvents": [...]}` dialect Perfetto and chrome://tracing
// load), with one track per network site and one per flow, counter tracks
// for cwnd/ssthresh and instants for drops/retransmits/state changes.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

enum class TraceEventType : std::uint8_t {
  kSourceEmit = 0,   // application handed a packet to the transport
  kQueueEnqueue,     // queue accepted a packet (value = occupancy after)
  kQueueDequeue,     // transmitter pulled a packet (value = occupancy after)
  kQueueDrop,        // queue rejected/displaced a packet (value = occupancy)
  kLinkDeliver,      // packet reached the far end of a link (value = bytes)
  kSinkAck,          // receiver emitted an ACK (seq = cumulative ack)
  kCwndChange,       // value = new cwnd, aux = ssthresh
  kSsthreshChange,   // value = new ssthresh, aux = cwnd
  kCcStateChange,    // detail = state string id, value = cwnd
  kFastRetransmit,   // seq = hole retransmitted, value = cwnd after
  kRto,              // retransmission timeout fired, value = cwnd after
  kVegasDiff,        // per-RTT decision: value = diff, aux = cwnd after
  kCongestionEvent,  // FlowMonitor drop cluster closed: value = flows hit,
                     // aux = event duration, seq = drops in event
};

/// Stable lowercase token for exports ("queue_drop", "cwnd_change", ...).
std::string_view to_string(TraceEventType t);

/// One trace record: a compact POD (56 bytes) so a multi-million-event
/// run rings through cheaply. Field meaning depends on `type` (see the
/// enum); `site` indexes TraceSink's site registry, `detail` is a small
/// type-specific discriminant (packet kind, drop reason, state id).
/// `tie` and `lp` are stamped by the sink itself (see TraceSink::emit):
/// they never appear in exports, they exist so per-LP rings merge back
/// into the sequential emission order (DESIGN.md §14).
struct TraceRecord {
  Time time = 0.0;
  double value = 0.0;
  double aux = 0.0;
  Time tie = 0.0;  // executing event's scheduler tie-break instant
  std::int64_t seq = -1;
  std::int32_t flow = -1;
  TraceEventType type = TraceEventType::kSourceEmit;
  std::uint8_t site = 0;
  std::uint16_t detail = 0;
  std::uint8_t lp = 0;  // logical process that emitted the record
};
static_assert(sizeof(TraceRecord) == 56,
              "TraceRecord layout is part of the ring's memory budget");

/// `detail` bit layout for packet-lifecycle records (queue/link/source):
/// bit 0 = packet kind (0 data, 1 ack); bits 1-2 = drop reason for
/// kQueueDrop (0 forced, 1 early/RED, 2 displaced).
inline constexpr std::uint16_t kTraceDetailAck = 1;
inline constexpr std::uint16_t kTraceDropForced = 0 << 1;
inline constexpr std::uint16_t kTraceDropEarly = 1 << 1;
inline constexpr std::uint16_t kTraceDropDisplaced = 2 << 1;

class TraceSink {
 public:
  /// @p capacity caps each of the sink's two rings (records, not bytes):
  /// live records and late aggregates (see emit_aggregate). The default
  /// holds a full paper-scale run (N=60, 20 s is ~2-3 M packet-lifecycle
  /// records).
  explicit TraceSink(std::size_t capacity = std::size_t{1} << 22);

  /// Registers (or finds) a named emission site — "queue:gateway",
  /// "link:bottleneck" — and returns its id for TraceRecord::site.
  std::uint8_t register_site(std::string_view name);

  /// Interns a congestion-control state name ("slow-start", "vegas-ca")
  /// and returns its id for TraceRecord::detail on kCcStateChange.
  std::uint16_t intern_state(std::string_view name);

  /// Binds the stamp every emitted record carries: @p tie_clock is the
  /// owning Simulator's executing-event tie-break instant (stable address,
  /// see Simulator::tie_clock) and @p lp the logical process this sink
  /// records for. Unset, records are stamped tie = their own time and
  /// lp = 0, which is exact for a single-LP run.
  void set_stamp(const Time* tie_clock, std::uint8_t lp) {
    tie_clock_ = tie_clock;
    lp_ = lp;
  }

  std::uint8_t lp() const { return lp_; }

  /// Appends a live record (stamped at the executing event, so emission
  /// order is time order); overwrites the oldest live record when the
  /// ring is full.
  void emit(const TraceRecord& r) {
    TraceRecord s = r;
    s.tie = tie_clock_ != nullptr ? *tie_clock_ : r.time;
    s.lp = lp_;
    live_.push(s);
    ++emitted_;
  }

  /// Appends a lazily-closed aggregate (a record emitted AFTER its logical
  /// timestamp, like FlowMonitor's congestion events) to a ring of its
  /// own, so that an overfull live ring evicts in time order in every
  /// engine (DESIGN.md §14.1). Stamped with tie = kTimeNever: it orders
  /// after every same-instant live record — exactly where the sequential
  /// engine's late emission plus stable time sort lands it.
  void emit_aggregate(const TraceRecord& r) {
    TraceRecord s = r;
    s.tie = kTimeNever;
    s.lp = lp_;
    late_.push(s);
    ++emitted_;
  }

  /// Records ever emitted (including any overwritten ones).
  std::uint64_t emitted() const { return emitted_; }
  /// Records overwritten because a ring was full.
  std::uint64_t dropped() const { return emitted_ - size(); }
  /// Records currently held.
  std::size_t size() const { return live_.size() + late_.size(); }
  /// Capacity of each ring in records (what the constructor was given).
  std::size_t capacity() const { return live_.capacity(); }

  const std::vector<std::string>& sites() const { return sites_; }
  const std::vector<std::string>& states() const { return states_; }

  /// The held records in nondecreasing time order: the live ring, with
  /// the aggregates merged in after the live records of their instant.
  std::vector<TraceRecord> ordered() const;

  /// Deterministic multi-LP merge: appends every part's held records into
  /// this sink in (time, tie) order — the same scheduler-key discipline
  /// the parallel runtime's merge_inbound uses — remapping site and
  /// CC-state ids by NAME into this sink's registries (each part interns
  /// independently). Within an LP, same-instant emissions already pop in
  /// nondecreasing tie order, and cross-LP deliveries replay the
  /// producer's tie (Simulator::schedule_at_as_of), so the merged order
  /// reproduces the sequential engine's emission order and the exports
  /// are byte-identical to a 1-LP run (tests/trace_merge_test.cpp). Each
  /// ring is a k-way merge of the parts' rings, residual ties going to the
  /// lower LP index: the order a stable sort of the LP-concatenated
  /// records gives. When the parts hold more than this sink's capacity,
  /// the earliest merged records are dropped, as if the ring had
  /// overwritten them; emitted() becomes the parts' total, so dropped()
  /// also counts what they dropped. Call once, on a sink that has not
  /// recorded; parts stay untouched.
  void merge_from(const std::vector<const TraceSink*>& parts);

  /// One JSON object per line; schema in scripts/trace_event.schema.json.
  /// Both exports format on up to four worker threads and write to @p os
  /// from the calling thread only; false if the stream failed.
  bool write_jsonl(std::ostream& os) const;

  /// Chrome trace-event JSON ("ph":"i" instants, "ph":"C" counters, ts in
  /// microseconds) loadable by Perfetto / chrome://tracing.
  bool write_chrome_trace(std::ostream& os) const;

 private:
  /// Fixed-capacity record ring: appends until full, then overwrites the
  /// oldest record. It never reallocates once reserved.
  class Ring {
   public:
    explicit Ring(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// Takes the capacity as address space only: pages fault in as
    /// records land.
    void reserve() { slots_.reserve(capacity_); }

    void push(const TraceRecord& r) {
      if (slots_.size() < capacity_) [[likely]] {
        slots_.push_back(r);
      } else {
        overwrite_oldest(r);
      }
    }

    std::size_t size() const { return slots_.size(); }
    std::size_t capacity() const { return capacity_; }
    const std::vector<TraceRecord>& slots() const { return slots_; }

    /// The held records sorted by @p before (stable over push order): the
    /// slots themselves when the ring has not wrapped and is already in
    /// that order, otherwise a sorted copy kept in @p scratch.
    template <typename Before>
    std::span<const TraceRecord> sorted(std::vector<TraceRecord>& scratch,
                                        Before before) const;

   private:
    void overwrite_oldest(const TraceRecord& r);

    std::size_t capacity_;
    std::vector<TraceRecord> slots_;
    /// Oldest held record once the ring is full (the next to overwrite);
    /// 0 until the first overwrite, so [head_, end) + [0, head_) is always
    /// push order.
    std::size_t head_ = 0;
  };

  /// Appends one record's export text to a block's string.
  using RecordFormat = std::function<void(const TraceRecord&, std::string&)>;

  /// Writes @p head, every held record in ordered() order through
  /// @p format, then @p tail. The records are cut into blocks that up to
  /// @p workers threads format while the calling thread writes them in
  /// order (DESIGN.md §9.1), so @p format must be safe to call
  /// concurrently. Reads the rings in place when they are in order (a
  /// merged sink's always are). False if the stream failed.
  bool write_ordered(std::ostream& os, std::string_view head,
                     const RecordFormat& format, std::string_view tail,
                     unsigned workers) const;

  /// Drives write_ordered with a chosen worker count in tests.
  friend struct TraceSinkTestPeer;

  Ring live_;
  Ring late_;
  std::uint64_t emitted_ = 0;
  const Time* tie_clock_ = nullptr;
  std::uint8_t lp_ = 0;
  std::vector<std::string> sites_;
  std::vector<std::string> states_;
};

}  // namespace burst
