#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/run/result_store.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/simulator.hpp"

namespace burst {

/// Runs the sink's block writer with a chosen worker count.
struct TraceSinkTestPeer {
  static bool write(const TraceSink& sink, std::ostream& os,
                    const TraceSink::RecordFormat& format, unsigned workers) {
    return sink.write_ordered(os, "[", format, "]\n", workers);
  }
};

namespace {

Packet data(FlowId flow, std::int64_t seq, int bytes = 1000) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TraceRecord record(TraceEventType type, Time t, double value = 0.0) {
  TraceRecord r;
  r.type = type;
  r.time = t;
  r.value = value;
  return r;
}

TEST(TraceSink, RingOverwritesOldestAndCounts) {
  TraceSink sink(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    sink.emit(record(TraceEventType::kSourceEmit, static_cast<Time>(i), i));
  }
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.size(), 4u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 4u);
  // Records 0 and 1 were overwritten; 2..5 survive in time order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)].time, i + 2.0);
  }
}

// Filled to exactly its capacity, the ring has overwritten nothing yet but
// its write position is back at the start: every record must still come
// back, in emission order.
TEST(TraceSink, RingFilledToCapacityKeepsEveryRecord) {
  TraceSink sink(/*capacity=*/4);
  for (int i = 0; i < 4; ++i) {
    sink.emit(record(TraceEventType::kSourceEmit, static_cast<Time>(i), i));
  }
  EXPECT_EQ(sink.emitted(), sink.capacity());
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)].time, i);
  }
  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  const std::string text = os.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

// The default ring is reserved, not filled: it reports its full capacity
// and holds nothing until records land.
TEST(TraceSink, DefaultSinkReservesButHoldsNothing) {
  const TraceSink sink;
  EXPECT_EQ(sink.capacity(), std::size_t{1} << 22);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.ordered().empty());
}

TEST(TraceSink, OrderedSortsLateEmissionsByTime) {
  TraceSink sink;
  sink.emit(record(TraceEventType::kQueueDrop, 1.0));
  sink.emit(record(TraceEventType::kQueueDrop, 3.0));
  // A lazily-closed aggregate (FlowMonitor's final congestion event) is
  // emitted after later records but carries the cluster's start time.
  sink.emit(record(TraceEventType::kCongestionEvent, 2.0));
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].time, 1.0);
  EXPECT_DOUBLE_EQ(got[1].time, 2.0);
  EXPECT_EQ(got[1].type, TraceEventType::kCongestionEvent);
  EXPECT_DOUBLE_EQ(got[2].time, 3.0);
}

// Late aggregates have a ring of their own: an overfull live ring evicts
// only live records, and the aggregate still exports at its logical time.
TEST(TraceSink, AggregateSurvivesLiveRingWrap) {
  TraceSink sink(/*capacity=*/2);
  for (int i = 0; i < 4; ++i) {
    sink.emit(record(TraceEventType::kQueueDrop, static_cast<Time>(i)));
  }
  sink.emit_aggregate(record(TraceEventType::kCongestionEvent, 0.5));
  EXPECT_EQ(sink.emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 2u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, TraceEventType::kCongestionEvent);
  EXPECT_DOUBLE_EQ(got[1].time, 2.0);
  EXPECT_DOUBLE_EQ(got[2].time, 3.0);
}

TEST(TraceSink, RegisterSiteDeduplicatesAndInternsStates) {
  TraceSink sink;
  const std::uint8_t a = sink.register_site("queue:gateway");
  const std::uint8_t b = sink.register_site("link:bottleneck");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.register_site("queue:gateway"), a);
  EXPECT_EQ(sink.sites()[a], "queue:gateway");

  const std::uint16_t s = sink.intern_state("slow-start");
  EXPECT_EQ(sink.intern_state("slow-start"), s);
  EXPECT_EQ(sink.states()[s], "slow-start");
}

// Golden JSONL export for a hand-built link scenario whose every timestamp
// is exactly representable: 1000-byte packets over an 8000 bps wire
// (tx = 1.0 s) with 0.5 s propagation. Two packets offered at t=0:
// the first transmits immediately, the second waits one transmission.
TEST(TraceExport, JsonlGolden) {
  Simulator sim;
  SimplexLink link(sim, std::make_unique<DropTailQueue>(10),
                   /*bandwidth_bps=*/8000.0, /*prop_delay=*/0.5);
  link.set_receiver([](const Packet&) {});

  TraceSink sink;
  const std::uint8_t qsite = sink.register_site("queue:gateway");
  const std::uint8_t lsite = sink.register_site("link:bottleneck");
  link.queue().set_trace(&sink, qsite);
  link.set_trace(&sink, lsite);

  link.send(data(1, 0));
  link.send(data(2, 1));
  sim.run();

  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  const std::string expected =
      "{\"t\":0,\"type\":\"queue_enqueue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":1,\"aux\":0,\"detail\":0}\n"
      "{\"t\":0,\"type\":\"queue_dequeue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":0,\"aux\":0,\"detail\":0}\n"
      "{\"t\":0,\"type\":\"queue_enqueue\",\"site\":\"queue:gateway\","
      "\"flow\":2,\"seq\":1,\"value\":1,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1,\"type\":\"queue_dequeue\",\"site\":\"queue:gateway\","
      "\"flow\":2,\"seq\":1,\"value\":0,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1.5,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":1,\"seq\":0,\"value\":1000,\"aux\":0,\"detail\":0}\n"
      "{\"t\":2.5,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":2,\"seq\":1,\"value\":1000,\"aux\":0,\"detail\":0}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TraceExport, JsonlStateNameOnCcStateChange) {
  TraceSink sink;
  TraceRecord r = record(TraceEventType::kCcStateChange, 0.25, 4.0);
  r.detail = sink.intern_state("fast-recovery");
  sink.emit(r);
  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  EXPECT_NE(os.str().find("\"type\":\"cc_state_change\""), std::string::npos);
  EXPECT_NE(os.str().find(",\"state\":\"fast-recovery\"}"),
            std::string::npos);
}

TEST(TraceExport, ChromeTraceStructure) {
  Simulator sim;
  SimplexLink link(sim, std::make_unique<DropTailQueue>(10), 8000.0, 0.5);
  link.set_receiver([](const Packet&) {});
  TraceSink sink;
  link.queue().set_trace(&sink, sink.register_site("queue:gateway"));
  link.set_trace(&sink, sink.register_site("link:bottleneck"));
  link.send(data(1, 0));
  sim.run();

  std::ostringstream os;
  ASSERT_TRUE(sink.write_chrome_trace(os));
  const std::string out = os.str();
  // Opens as a trace-event JSON object, metadata first, and closes the
  // traceEvents array.
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", 0),
            0u);
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"qlen queue:gateway\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"deliver\",\"ph\":\"i\""), std::string::npos);
  // ts is in microseconds: delivery at 1.5 s -> 1500000.
  EXPECT_NE(out.find("\"ts\":1500000"), std::string::npos);
}

// printf's rendering of one JSONL line: the contract write_jsonl keeps.
void printf_jsonl(const TraceSink& sink, const TraceRecord& r,
                  std::string& out) {
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "{\"t\":%.17g,\"type\":\"%s\",\"site\":\"%s\",\"flow\":%d,"
      "\"seq\":%lld,\"value\":%.17g,\"aux\":%.17g,\"detail\":%d",
      r.time, std::string(to_string(r.type)).c_str(),
      sink.sites()[r.site].c_str(), r.flow, static_cast<long long>(r.seq),
      r.value, r.aux, static_cast<int>(r.detail));
  out.append(buf, static_cast<std::size_t>(n));
  if (r.type == TraceEventType::kCcStateChange) {
    out += ",\"state\":\"" + sink.states()[r.detail] + '"';
  }
  out += "}\n";
}

constexpr std::size_t kEdgeCapacity = 20000;  // ten export blocks of 2048
constexpr int kEdgeEmitted = 25000;           // so the live ring wraps

Time edge_time(int i) { return (i / 3) * 0.0123; }  // three per instant

// A wrapped live ring holding ten blocks of records of every live type,
// three per instant so block edges fall inside same-instant runs, and
// late aggregates stamped at the instants on both sides of every block
// edge, before the first held record and after the last.
TraceSink block_edge_sink() {
  TraceSink sink(kEdgeCapacity);
  const std::uint8_t site = sink.register_site("queue:gateway");
  const std::uint16_t state = sink.intern_state("slow-start");
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> frac(0.0, 64.0);
  for (int i = 0; i < kEdgeEmitted; ++i) {
    TraceRecord r;
    r.time = edge_time(i);
    r.type = static_cast<TraceEventType>(
        i % static_cast<int>(TraceEventType::kCongestionEvent));
    r.site = site;
    r.flow = i % 7 - 1;
    r.seq = i;
    r.value = i % 4 == 0   ? 0.0
              : i % 4 == 1 ? static_cast<double>(i)
                           : frac(rng);
    r.aux = -frac(rng);
    if (r.type == TraceEventType::kCcStateChange) r.detail = state;
    sink.emit(r);
  }
  const int first_held = kEdgeEmitted - static_cast<int>(kEdgeCapacity);
  std::vector<Time> instants = {0.0, edge_time(kEdgeEmitted) + 1.0};
  for (int b = 2048; b < static_cast<int>(kEdgeCapacity); b += 2048) {
    instants.push_back(edge_time(first_held + b - 1));
    instants.push_back(edge_time(first_held + b));
  }
  for (const Time t : instants) {
    TraceRecord a = record(TraceEventType::kCongestionEvent, t, 3.0);
    a.aux = 0.3;
    a.seq = 7;
    sink.emit_aggregate(a);
  }
  return sink;
}

std::string printf_rendering(const TraceSink& sink) {
  std::string out;
  for (const TraceRecord& r : sink.ordered()) printf_jsonl(sink, r, out);
  return out;
}

// Blocks cut the ordered records, and aggregates at a block's edge
// instants must land where ordered() puts them, across a wrapped ring.
TEST(TraceExport, JsonlAcrossBlockEdgesMatchesPrintfRendering) {
  const TraceSink sink = block_edge_sink();
  ASSERT_EQ(sink.dropped(), static_cast<std::uint64_t>(kEdgeEmitted) -
                                kEdgeCapacity);
  ASSERT_EQ(sink.size(), kEdgeCapacity + 20);
  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  EXPECT_EQ(os.str(), printf_rendering(sink));
}

TEST(TraceExport, WorkerCountDoesNotChangeTheBytes) {
  const TraceSink sink = block_edge_sink();
  const auto format = [&](const TraceRecord& r, std::string& out) {
    printf_jsonl(sink, r, out);
  };
  std::ostringstream one, four;
  ASSERT_TRUE(TraceSinkTestPeer::write(sink, one, format, 1));
  ASSERT_TRUE(TraceSinkTestPeer::write(sink, four, format, 4));
  EXPECT_EQ(one.str(), "[" + printf_rendering(sink) + "]\n");
  EXPECT_EQ(four.str(), one.str());
}

/// Takes @p limit bytes, then fails every write.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::streamsize limit) : left_(limit) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const std::streamsize took = std::min(n, left_);
    left_ -= took;
    return took;
  }
  int_type overflow(int_type c) override {
    if (left_ == 0) return traits_type::eof();
    --left_;
    return c;
  }

 private:
  std::streamsize left_;
};

// A stream that fails mid-export ends it: false, with every worker joined
// (a worker left running would hang or crash the test). A worker that
// throws hands its exception to the caller the same way.
TEST(TraceExport, FailedStreamOrThrowingFormatEndsTheExport) {
  const TraceSink sink = block_edge_sink();
  {
    FailingBuf buf(100000);
    std::ostream os(&buf);
    EXPECT_FALSE(sink.write_jsonl(os));
  }
  {
    FailingBuf buf(100000);
    std::ostream os(&buf);
    EXPECT_FALSE(sink.write_chrome_trace(os));
  }
  for (const unsigned workers : {1u, 4u}) {
    std::atomic<std::size_t> calls{0};
    const auto throwing = [&](const TraceRecord&, std::string&) {
      if (++calls == 5000) throw std::runtime_error("format failed");
    };
    std::ostringstream os;
    EXPECT_THROW(TraceSinkTestPeer::write(sink, os, throwing, workers),
                 std::runtime_error);
  }
}

// The exports of a fixed traced run, pinned to the bytes the serial
// to_chars exporter wrote before the block writer and the integer fast
// path (FNV-1a 64 of each file).
TEST(TraceExport, PinnedRunExportHashes) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 30;
  sc.duration = 3.0;
  sc.gateway = GatewayQueue::kRed;
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  run_experiment(sc, opts);
  std::ostringstream jsonl, chrome;
  ASSERT_TRUE(sink.write_jsonl(jsonl));
  ASSERT_TRUE(sink.write_chrome_trace(chrome));
  const auto hex = [](const std::string& s) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s)));
    return std::string(buf);
  };
  EXPECT_EQ(hex(jsonl.str()), "dde081a449aa12a9");
  EXPECT_EQ(hex(chrome.str()), "ad97197e973d26f4");
}

// A traced full experiment emits every record in nondecreasing ordered()
// time, covers the expected sites, and sees the transport transitions.
TEST(TraceExperiment, OrderedAgainstSchedulerTime) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.duration = 3.0;
  sc.delayed_ack = true;  // exercises the delayed-ACK sink path too

  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  const ExperimentResult r = run_experiment(sc, opts);

  EXPECT_GT(sink.emitted(), 0u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), sink.size());
  bool saw_enqueue = false, saw_deliver = false, saw_ack = false;
  bool saw_cwnd = false, saw_emit = false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      ASSERT_GE(got[i].time, got[i - 1].time) << "record " << i;
    }
    EXPECT_LE(got[i].time, sc.duration + 1.0);
    saw_enqueue |= got[i].type == TraceEventType::kQueueEnqueue;
    saw_deliver |= got[i].type == TraceEventType::kLinkDeliver;
    saw_ack |= got[i].type == TraceEventType::kSinkAck;
    saw_cwnd |= got[i].type == TraceEventType::kCwndChange;
    saw_emit |= got[i].type == TraceEventType::kSourceEmit;
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_cwnd);
  EXPECT_TRUE(saw_emit);
  // Source emissions must match the experiment's own count.
  std::uint64_t emits = 0;
  for (const TraceRecord& rec : got) {
    if (rec.type == TraceEventType::kSourceEmit) ++emits;
  }
  EXPECT_EQ(emits, r.app_generated);

  // The dumbbell registered its fixed sites.
  bool queue_site = false, link_site = false, sink_site = false;
  for (const std::string& s : sink.sites()) {
    queue_site |= s == "queue:gateway";
    link_site |= s == "link:bottleneck";
    sink_site |= s == "sink:server";
  }
  EXPECT_TRUE(queue_site);
  EXPECT_TRUE(link_site);
  EXPECT_TRUE(sink_site);
}

// The observability hard constraint: attaching a TraceSink must not change
// the simulation. Every serialized metric — including the v3 metrics
// snapshot — is bit-identical between a traced and an untraced run.
TEST(TraceExperiment, TracedRunIsBitIdenticalToUntraced) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 20;
  sc.duration = 3.0;

  const ExperimentResult plain = run_experiment(sc);

  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  const ExperimentResult traced = run_experiment(sc, opts);

  EXPECT_GT(sink.emitted(), 0u);
  EXPECT_EQ(result_to_json(plain), result_to_json(traced));
  EXPECT_EQ(plain.metrics, traced.metrics);
}

}  // namespace
}  // namespace burst
