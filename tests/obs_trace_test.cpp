#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/run/result_store.hpp"
#include "src/sim/simulator.hpp"

namespace burst {
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
