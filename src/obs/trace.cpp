#include "src/obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <ostream>
#include <system_error>
#include <thread>

#include "src/obs/json_fmt.hpp"

namespace burst {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
}

/// Escaped once per name, not once per record.
std::vector<std::string> escaped_all(const std::vector<std::string>& names,
                                     std::string_view prefix = {}) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    std::string& e = out.emplace_back(prefix);
    append_escaped(e, n);
  }
  return out;
}

bool before_in_time(const TraceRecord& a, const TraceRecord& b) {
  return a.time < b.time;
}

/// The scheduler key: execution time, then the executing event's
/// tie-break instant (replayed across LPs by schedule_at_as_of).
bool before_in_key(const TraceRecord& a, const TraceRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.tie < b.tie;
}

/// Calls @p fn on @p live and @p late (each in time order) merged the way
/// ordered() merges them: an aggregate follows the live records of its
/// instant, since it was emitted after all of them.
template <typename Fn>
void merge_by_time(std::span<const TraceRecord> live,
                   std::span<const TraceRecord> late, Fn&& fn) {
  auto agg = late.begin();
  for (const TraceRecord& r : live) {
    for (; agg != late.end() && agg->time < r.time; ++agg) fn(*agg);
    fn(r);
  }
  for (; agg != late.end(); ++agg) fn(*agg);
}

/// Writes blocks 0..@p blocks-1 to @p os in order, each formatted by
/// @p format(b, out) into an empty string. Up to @p workers threads format
/// ahead, claiming blocks in order; block b goes through slot b % slots,
/// which it may fill only once the calling thread has written block
/// b - slots, so at most slots + workers block texts exist at once. The
/// calling thread writes each block as soon as its slot holds it. Returns
/// false, after joining every worker, if the stream fails; a worker's
/// exception is rethrown here.
bool write_in_order(
    std::ostream& os, std::size_t blocks, unsigned workers,
    const std::function<void(std::size_t, std::string&)>& format) {
  // A worker formats into its own string and swaps it into an aligned
  // slot: string headers sharing a cache line made 4 workers no faster
  // than 1.
  struct alignas(64) Slot {
    std::string text;
    bool full = false;  // holds block `written` (no other block maps here)
  };
  const std::size_t threads =
      std::min<std::size_t>(std::max(workers, 1u), blocks);
  std::vector<Slot> slots(threads);

  std::mutex mu;  // guards every field below and the slots
  std::condition_variable filled, freed;
  std::size_t next = 0;     // next block to claim
  std::size_t written = 0;  // blocks the calling thread has written
  bool stop = false;
  std::exception_ptr error;

  const auto work = [&] {
    std::string local;
    for (;;) {
      std::size_t b;
      {
        const std::lock_guard lk(mu);
        if (stop || next == blocks) return;
        b = next++;
      }
      local.clear();
      try {
        format(b, local);
      } catch (...) {
        const std::lock_guard lk(mu);
        if (!error) error = std::current_exception();
        stop = true;
        filled.notify_all();
        freed.notify_all();
        return;
      }
      std::unique_lock lk(mu);
      freed.wait(lk, [&] { return stop || b < written + slots.size(); });
      if (stop) return;
      Slot& s = slots[b % slots.size()];
      s.text.swap(local);
      s.full = true;
      filled.notify_all();
    }
  };

  std::vector<std::thread> pool;
  const auto stop_and_join = [&] {
    {
      const std::lock_guard lk(mu);
      stop = true;
    }
    freed.notify_all();
    for (std::thread& t : pool) t.join();
  };
  bool ok = true;
  try {
    pool.reserve(threads);
    try {
      for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(work);
    } catch (const std::system_error&) {
      // Fewer threads than asked for still finish the export; none cannot.
      if (pool.empty()) throw;
    }
    for (std::size_t b = 0; b < blocks && ok; ++b) {
      Slot& s = slots[b % slots.size()];
      {
        std::unique_lock lk(mu);
        filled.wait(lk, [&] { return error || s.full; });
        if (error) break;
      }
      // The slot stays this block's until `written` moves past it.
      os.write(s.text.data(), static_cast<std::streamsize>(s.text.size()));
      ok = static_cast<bool>(os);
      {
        const std::lock_guard lk(mu);
        s.full = false;
        ++written;
      }
      freed.notify_all();
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
  stop_and_join();
  if (error) std::rethrow_exception(error);
  return ok;
}

/// Live records per export block: large enough that claiming a block costs
/// nothing next to formatting it, small enough that a block's text stays a
/// few hundred kB.
constexpr std::size_t kBlockRecords = 2048;

/// Threads formatting an export: the writer is bound by formatting, and
/// four workers keep the calling thread's writes fed.
unsigned export_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

constexpr double kMicrosPerSec = 1e6;

}  // namespace

std::string_view to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSourceEmit: return "source_emit";
    case TraceEventType::kQueueEnqueue: return "queue_enqueue";
    case TraceEventType::kQueueDequeue: return "queue_dequeue";
    case TraceEventType::kQueueDrop: return "queue_drop";
    case TraceEventType::kLinkDeliver: return "link_deliver";
    case TraceEventType::kSinkAck: return "sink_ack";
    case TraceEventType::kCwndChange: return "cwnd_change";
    case TraceEventType::kSsthreshChange: return "ssthresh_change";
    case TraceEventType::kCcStateChange: return "cc_state_change";
    case TraceEventType::kFastRetransmit: return "fast_retransmit";
    case TraceEventType::kRto: return "rto";
    case TraceEventType::kVegasDiff: return "vegas_diff";
    case TraceEventType::kCongestionEvent: return "congestion_event";
  }
  return "unknown";
}

TraceSink::TraceSink(std::size_t capacity) : live_(capacity), late_(capacity) {
  // Live records are the bulk of a trace, so their ring is reserved whole;
  // aggregates come a few per drop cluster and their ring grows as needed.
  live_.reserve();
  // Site 0 is the catch-all for records emitted before any registration.
  sites_.emplace_back("unknown");
}

std::uint8_t TraceSink::register_site(std::string_view name) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == name) return static_cast<std::uint8_t>(i);
  }
  assert(sites_.size() < 256 && "TraceRecord::site is a uint8 index");
  sites_.emplace_back(name);
  return static_cast<std::uint8_t>(sites_.size() - 1);
}

std::uint16_t TraceSink::intern_state(std::string_view name) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == name) return static_cast<std::uint16_t>(i);
  }
  states_.emplace_back(name);
  return static_cast<std::uint16_t>(states_.size() - 1);
}

void TraceSink::Ring::overwrite_oldest(const TraceRecord& r) {
  slots_[head_] = r;
  if (++head_ == capacity_) head_ = 0;
}

template <typename Before>
std::span<const TraceRecord> TraceSink::Ring::sorted(
    std::vector<TraceRecord>& scratch, Before before) const {
  if (head_ == 0 && std::is_sorted(slots_.begin(), slots_.end(), before)) {
    return slots_;
  }
  const auto head = slots_.begin() + static_cast<std::ptrdiff_t>(head_);
  scratch.assign(head, slots_.end());
  scratch.insert(scratch.end(), slots_.begin(), head);
  std::stable_sort(scratch.begin(), scratch.end(), before);
  return scratch;
}

std::vector<TraceRecord> TraceSink::ordered() const {
  std::vector<TraceRecord> live_scratch, late_scratch;
  std::vector<TraceRecord> out;
  out.reserve(size());
  merge_by_time(live_.sorted(live_scratch, before_in_time),
                late_.sorted(late_scratch, before_in_time),
                [&out](const TraceRecord& r) { out.push_back(r); });
  return out;
}

bool TraceSink::write_ordered(std::ostream& os, std::string_view head,
                              const RecordFormat& format,
                              std::string_view tail, unsigned workers) const {
  // Live records are emitted in execution order, which is time order, so
  // the stable sort on time behind sorted() runs only if a check finds
  // one out of place; it keeps same-instant records in emission order
  // (the scheduler's deterministic tie-break).
  std::vector<TraceRecord> live_scratch, late_scratch;
  const std::span<const TraceRecord> live =
      live_.sorted(live_scratch, before_in_time);
  const std::span<const TraceRecord> late =
      late_.sorted(late_scratch, before_in_time);
  // Block b holds live[b·kBlockRecords, (b+1)·kBlockRecords) and the
  // aggregates ordered() places among them: those at or after the time of
  // the live record before the block (an aggregate follows every live
  // record of its instant), up to the next block's first. Each block's
  // merge therefore emits exactly its slice of ordered(), and the blocks
  // concatenate to the whole.
  const std::size_t blocks = std::max<std::size_t>(
      1, (live.size() + kBlockRecords - 1) / kBlockRecords);
  const auto late_begin = [&](std::size_t b) -> std::size_t {
    if (b == 0) return 0;
    if (b == blocks) return late.size();
    const Time edge = live[b * kBlockRecords - 1].time;
    return static_cast<std::size_t>(
        std::lower_bound(late.begin(), late.end(), edge,
                         [](const TraceRecord& r, Time t) {
                           return r.time < t;
                         }) -
        late.begin());
  };
  os.write(head.data(), static_cast<std::streamsize>(head.size()));
  const bool ok = write_in_order(
      os, blocks, workers, [&](std::size_t b, std::string& out) {
        const std::size_t first = std::min(b * kBlockRecords, live.size());
        const std::size_t agg = late_begin(b);
        merge_by_time(
            live.subspan(first, std::min(kBlockRecords, live.size() - first)),
            late.subspan(agg, late_begin(b + 1) - agg),
            [&](const TraceRecord& r) { format(r, out); });
      });
  os.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  return ok && static_cast<bool>(os);
}

void TraceSink::merge_from(const std::vector<const TraceSink*>& parts) {
  assert(emitted_ == 0 && "merge_from() fills a sink that has not recorded");
  // Remap every part's site/state ids by name. Processing parts in LP
  // order keeps this sink's registries equal to the sequential run's when
  // LP 0 interns everything (the dumbbell split), and deterministic
  // regardless.
  struct IdMap {
    std::vector<std::uint8_t> sites;
    std::vector<std::uint16_t> states;
  };
  std::vector<IdMap> maps(parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    for (const std::string& name : parts[k]->sites_) {
      maps[k].sites.push_back(register_site(name));
    }
    for (const std::string& name : parts[k]->states_) {
      maps[k].states.push_back(intern_state(name));
    }
    // Every record the parts ever emitted, so dropped() counts what their
    // rings overwrote too, as the sequential rings' would.
    emitted_ += parts[k]->emitted_;
  }

  // k-way merge of one ring across the parts, each read in (time, tie)
  // order: in place, unless it wrapped or holds a record out of order.
  // A residual tie goes to the lower LP index and within a part emission
  // order stands — exactly what a stable sort over the LP-concatenated
  // records gives, the same residual-tie discipline the per-LP schedulers
  // use. Only the last capacity() merged records are stored: the earlier
  // ones are what an overfull ring would have overwritten.
  const auto merge = [&](Ring TraceSink::*ring) {
    std::vector<std::vector<TraceRecord>> scratch(parts.size());
    std::vector<std::span<const TraceRecord>> recs;
    std::vector<std::size_t> next(parts.size(), 0);
    std::size_t total = 0;
    for (std::size_t k = 0; k < parts.size(); ++k) {
      recs.push_back((parts[k]->*ring).sorted(scratch[k], before_in_key));
      total += recs.back().size();
    }
    Ring& into = this->*ring;
    const std::size_t skip =
        total > into.capacity() ? total - into.capacity() : 0;
    for (std::size_t n = 0; n < total; ++n) {
      std::size_t best = parts.size();
      for (std::size_t k = 0; k < parts.size(); ++k) {
        if (next[k] < recs[k].size() &&
            (best == parts.size() ||
             before_in_key(recs[k][next[k]], recs[best][next[best]]))) {
          best = k;
        }
      }
      const TraceRecord& r = recs[best][next[best]++];
      if (n < skip) continue;
      // Already stamped by the originating sink; bypass the stamping emit.
      TraceRecord m = r;
      const IdMap& map = maps[best];
      m.site = r.site < map.sites.size() ? map.sites[r.site] : 0;
      if (m.type == TraceEventType::kCcStateChange &&
          r.detail < map.states.size()) {
        m.detail = map.states[r.detail];
      }
      into.push(m);
    }
  };
  merge(&TraceSink::live_);
  merge(&TraceSink::late_);
}

bool TraceSink::write_jsonl(std::ostream& os) const {
  const std::vector<std::string> sites = escaped_all(sites_);
  const std::vector<std::string> states = escaped_all(states_);
  return write_ordered(
      os, {},
      [&](const TraceRecord& r, std::string& out) {
        out += "{\"t\":";
        append_double(out, r.time);
        out += ",\"type\":\"";
        out += to_string(r.type);
        out += "\",\"site\":\"";
        out += sites[r.site < sites.size() ? r.site : 0];
        out += "\",\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += ",\"value\":";
        append_double(out, r.value);
        out += ",\"aux\":";
        append_double(out, r.aux);
        out += ",\"detail\":";
        append_i64(out, r.detail);
        if (r.type == TraceEventType::kCcStateChange &&
            r.detail < states.size()) {
          out += ",\"state\":\"";
          out += states[r.detail];
          out += '"';
        }
        out += "}\n";
      },
      {}, export_workers());
}

bool TraceSink::write_chrome_trace(std::ostream& os) const {
  const std::vector<std::string> qlen_names = escaped_all(sites_, "qlen ");
  const std::vector<std::string> state_names =
      escaped_all(states_, "state: ");

  // Flow tracks get their own pid so Perfetto groups each flow's counter
  // and instant tracks together; network sites share pid 1.
  constexpr int kNetPid = 1;
  constexpr int kFlowPidBase = 1000;
  std::vector<bool> flow_seen;
  for (const Ring* ring : {&live_, &late_}) {
    for (const TraceRecord& r : ring->slots()) {
      if (r.flow < 0) continue;
      if (static_cast<std::size_t>(r.flow) >= flow_seen.size()) {
        flow_seen.resize(static_cast<std::size_t>(r.flow) + 1, false);
      }
      flow_seen[static_cast<std::size_t>(r.flow)] = true;
    }
  }

  std::string head = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto meta = [&](const char* kind, int pid, int tid, std::string_view name) {
    if (!first) head += ",\n";
    first = false;
    head += "{\"name\":\"";
    head += kind;
    head += "\",\"ph\":\"M\",\"pid\":";
    append_i64(head, pid);
    head += ",\"tid\":";
    append_i64(head, tid);
    head += ",\"args\":{\"name\":\"";
    append_escaped(head, name);
    head += "\"}}";
  };
  meta("process_name", kNetPid, 0, "network");
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    meta("thread_name", kNetPid, static_cast<int>(i), sites_[i]);
  }
  for (std::size_t f = 0; f < flow_seen.size(); ++f) {
    if (!flow_seen[f]) continue;
    meta("process_name", kFlowPidBase + static_cast<int>(f), 0,
         "flow " + std::to_string(f));
    meta("thread_name", kFlowPidBase + static_cast<int>(f), 0, "events");
  }

  // Every event row follows at least the "network" metadata row. @p name
  // is JSON string content, already escaped.
  auto header = [](std::string& out, std::string_view name, char ph, int pid,
                   int tid, Time t) {
    out += ",\n{\"name\":\"";
    out += name;
    out += "\",\"ph\":\"";
    out.push_back(ph);
    out += "\",\"ts\":";
    append_double(out, t * kMicrosPerSec);
    out += ",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
  };
  auto counter1 = [&](std::string& out, std::string_view name, int pid, Time t,
                      std::string_view series, double v) {
    header(out, name, 'C', pid, 0, t);
    out += ",\"args\":{\"";
    out += series;
    out += "\":";
    append_double(out, v);
    out += "}}";
  };
  auto instant_begin = [&](std::string& out, std::string_view name, int pid,
                           int tid, Time t) {
    header(out, name, 'i', pid, tid, t);
    out += ",\"s\":\"t\",\"args\":{";
  };

  const auto format = [&](const TraceRecord& r, std::string& out) {
    const int site_tid = r.site < sites_.size() ? r.site : 0;
    const int flow_pid = kFlowPidBase + (r.flow >= 0 ? r.flow : 0);
    switch (r.type) {
      case TraceEventType::kQueueEnqueue:
      case TraceEventType::kQueueDequeue:
        counter1(out, qlen_names[static_cast<std::size_t>(site_tid)], kNetPid,
                 r.time, "packets", r.value);
        break;
      case TraceEventType::kQueueDrop:
        instant_begin(out, "drop", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += ",\"qlen\":";
        append_double(out, r.value);
        out += ",\"reason\":\"";
        out += (r.detail >> 1) == 1   ? "early"
               : (r.detail >> 1) == 2 ? "displaced"
                                      : "forced";
        out += "\"}}";
        break;
      case TraceEventType::kLinkDeliver:
        instant_begin(out, "deliver", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSourceEmit:
        instant_begin(out, "app_emit", flow_pid, 0, r.time);
        out += "\"n\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSinkAck:
        instant_begin(out, "ack", flow_pid, 0, r.time);
        out += "\"ack\":";
        append_i64(out, r.seq);
        out += ",\"ooo\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCwndChange:
        counter1(out, "cwnd", flow_pid, r.time, "cwnd", r.value);
        break;
      case TraceEventType::kSsthreshChange:
        counter1(out, "ssthresh", flow_pid, r.time, "ssthresh", r.value);
        break;
      case TraceEventType::kVegasDiff:
        counter1(out, "vegas_diff", flow_pid, r.time, "diff", r.value);
        break;
      case TraceEventType::kCcStateChange:
        instant_begin(
            out,
            r.detail < state_names.size() ? state_names[r.detail] : "state: ?",
            flow_pid, 0, r.time);
        out += "\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kFastRetransmit:
      case TraceEventType::kRto:
        instant_begin(out,
                      r.type == TraceEventType::kRto ? "rto"
                                                     : "fast_retransmit",
                      flow_pid, 0, r.time);
        out += "\"seq\":";
        append_i64(out, r.seq);
        out += ",\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCongestionEvent:
        instant_begin(out, "congestion_event", kNetPid, site_tid, r.time);
        out += "\"flows_hit\":";
        append_double(out, r.value);
        out += ",\"duration\":";
        append_double(out, r.aux);
        out += ",\"drops\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
    }
  };
  return write_ordered(os, head, format, "\n]}\n", export_workers());
}

}  // namespace burst
