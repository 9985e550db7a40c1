#include "src/obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

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

constexpr double kMicrosPerSec = 1e6;
/// Exports build their text in chunks of about this size, then write.
constexpr std::size_t kWriteChunk = std::size_t{1} << 20;

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

template <typename Fn>
void TraceSink::for_each_ordered(Fn&& fn) const {
  // Live records are emitted in execution order, which is time order, so
  // the stable sort on time behind sorted() runs only if a check finds
  // one out of place; it keeps same-instant records in emission order
  // (the scheduler's deterministic tie-break).
  std::vector<TraceRecord> live_scratch, late_scratch;
  const std::span<const TraceRecord> live =
      live_.sorted(live_scratch, before_in_time);
  const std::span<const TraceRecord> late =
      late_.sorted(late_scratch, before_in_time);
  // An aggregate follows the live records of its instant: it was emitted
  // after all of them.
  auto agg = late.begin();
  for (const TraceRecord& r : live) {
    for (; agg != late.end() && agg->time < r.time; ++agg) fn(*agg);
    fn(r);
  }
  for (; agg != late.end(); ++agg) fn(*agg);
}

std::vector<TraceRecord> TraceSink::ordered() const {
  std::vector<TraceRecord> out;
  out.reserve(size());
  for_each_ordered([&out](const TraceRecord& r) { out.push_back(r); });
  return out;
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
  std::string out;
  for_each_ordered([&](const TraceRecord& r) {
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
    if (out.size() >= kWriteChunk) {
      os << out;
      out.clear();
    }
  });
  os << out;
  return static_cast<bool>(os);
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

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto meta = [&](const char* kind, int pid, int tid, std::string_view name) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, name);
    out += "\"}}";
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

  // @p name is JSON string content, already escaped.
  auto header = [&](std::string_view name, char ph, int pid, int tid,
                    Time t) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
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
  auto counter1 = [&](std::string_view name, int pid, Time t,
                      std::string_view series, double v) {
    header(name, 'C', pid, 0, t);
    out += ",\"args\":{\"";
    append_escaped(out, series);
    out += "\":";
    append_double(out, v);
    out += "}}";
  };
  auto instant_begin = [&](std::string_view name, int pid, int tid, Time t) {
    header(name, 'i', pid, tid, t);
    out += ",\"s\":\"t\",\"args\":{";
  };

  for_each_ordered([&](const TraceRecord& r) {
    const int site_tid = r.site < sites_.size() ? r.site : 0;
    const int flow_pid = kFlowPidBase + (r.flow >= 0 ? r.flow : 0);
    switch (r.type) {
      case TraceEventType::kQueueEnqueue:
      case TraceEventType::kQueueDequeue:
        counter1(qlen_names[static_cast<std::size_t>(site_tid)], kNetPid,
                 r.time, "packets", r.value);
        break;
      case TraceEventType::kQueueDrop:
        instant_begin("drop", kNetPid, site_tid, r.time);
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
        instant_begin("deliver", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSourceEmit:
        instant_begin("app_emit", flow_pid, 0, r.time);
        out += "\"n\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSinkAck:
        instant_begin("ack", flow_pid, 0, r.time);
        out += "\"ack\":";
        append_i64(out, r.seq);
        out += ",\"ooo\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCwndChange:
        counter1("cwnd", flow_pid, r.time, "cwnd", r.value);
        break;
      case TraceEventType::kSsthreshChange:
        counter1("ssthresh", flow_pid, r.time, "ssthresh", r.value);
        break;
      case TraceEventType::kVegasDiff:
        counter1("vegas_diff", flow_pid, r.time, "diff", r.value);
        break;
      case TraceEventType::kCcStateChange:
        instant_begin(
            r.detail < state_names.size() ? state_names[r.detail] : "state: ?",
            flow_pid, 0, r.time);
        out += "\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kFastRetransmit:
      case TraceEventType::kRto:
        instant_begin(r.type == TraceEventType::kRto ? "rto"
                                                     : "fast_retransmit",
                      flow_pid, 0, r.time);
        out += "\"seq\":";
        append_i64(out, r.seq);
        out += ",\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCongestionEvent:
        instant_begin("congestion_event", kNetPid, site_tid, r.time);
        out += "\"flows_hit\":";
        append_double(out, r.value);
        out += ",\"duration\":";
        append_double(out, r.aux);
        out += ",\"drops\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
    }
    if (out.size() >= kWriteChunk) {
      os << out;
      out.clear();
    }
  });
  out += "\n]}\n";
  os << out;
  return static_cast<bool>(os);
}

}  // namespace burst
