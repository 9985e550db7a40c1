#include "src/app/trace_source.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/net/drop_tail_queue.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/topo/builder.hpp"

namespace burst {
namespace {

// Minimal recording agent (same pattern as sources_test).
struct RecordingAgent : Agent {
  std::vector<Time> sends;
  RecordingAgent(Simulator& sim, Node& node)
      : Agent(sim, node, 0, 0) {}
  void app_send(int packets) override {
    for (int i = 0; i < packets; ++i) sends.push_back(sim_.now());
  }
  void handle(const Packet&) override {}
};

TEST(TraceSource, ReplaysExactTimes) {
  Simulator sim(1);
  Node node(0);
  RecordingAgent agent(sim, node);
  TraceSource src(sim, agent, {0.5, 1.25, 2.0});
  src.start();
  sim.run(10.0);
  ASSERT_EQ(agent.sends.size(), 3u);
  EXPECT_DOUBLE_EQ(agent.sends[0], 0.5);
  EXPECT_DOUBLE_EQ(agent.sends[1], 1.25);
  EXPECT_DOUBLE_EQ(agent.sends[2], 2.0);
  EXPECT_EQ(src.generated(), 3u);
}

TEST(TraceSource, SortsUnorderedInput) {
  Simulator sim(1);
  Node node(0);
  RecordingAgent agent(sim, node);
  TraceSource src(sim, agent, {2.0, 0.5, 1.0});
  src.start();
  sim.run(10.0);
  ASSERT_EQ(agent.sends.size(), 3u);
  EXPECT_DOUBLE_EQ(agent.sends[0], 0.5);
}

TEST(TraceSource, StopHaltsReplay) {
  Simulator sim(1);
  Node node(0);
  RecordingAgent agent(sim, node);
  TraceSource src(sim, agent, {0.5, 1.5, 2.5});
  src.start();
  sim.run(1.0);
  src.stop();
  sim.run(10.0);
  EXPECT_EQ(agent.sends.size(), 1u);
}

TEST(TraceSource, SkipsPastEntriesWhenStartedLate) {
  Simulator sim(1);
  Node node(0);
  RecordingAgent agent(sim, node);
  TraceSource src(sim, agent, {0.5, 1.5, 2.5});
  sim.schedule(1.0, [&] { src.start(); });
  sim.run(10.0);
  ASSERT_EQ(agent.sends.size(), 2u);  // 0.5 is in the past at start
  EXPECT_DOUBLE_EQ(agent.sends[0], 1.5);
}

TEST(TraceSource, EmptyTraceIsHarmless) {
  Simulator sim(1);
  Node node(0);
  RecordingAgent agent(sim, node);
  TraceSource src(sim, agent, {});
  src.start();
  sim.run(1.0);
  EXPECT_EQ(src.generated(), 0u);
}

TEST(ArrivalTraceRecorder, CapturesQueueArrivals) {
  DropTailQueue q(100);
  ArrivalTraceRecorder rec(q);
  Packet d;
  d.size_bytes = 1040;
  q.enqueue(d, 1.5);
  q.enqueue(d, 2.5);
  Packet a;
  a.type = PacketType::kAck;
  q.enqueue(a, 3.0);  // ACKs ignored
  ASSERT_EQ(rec.times().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.times()[0], 1.5);
  EXPECT_DOUBLE_EQ(rec.times()[1], 2.5);
}

TEST(ArrivalTraceRecorder, SaveLoadRoundTrip) {
  DropTailQueue q(100);
  ArrivalTraceRecorder rec(q);
  Packet d;
  d.size_bytes = 1040;
  for (int i = 0; i < 5; ++i) q.enqueue(d, 0.25 * i);
  const std::string path = ::testing::TempDir() + "/burst_trace_io.txt";
  rec.save(path);
  const auto loaded = ArrivalTraceRecorder::load(path);
  ASSERT_EQ(loaded.size(), rec.times().size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded[i], rec.times()[i], 1e-9);
  }
  std::remove(path.c_str());
}

TEST(TraceIntegration, RecordedGatewayTraceReplaysWithSameShape) {
  // Record the gateway arrival process of a live Reno run, then replay it
  // through a fresh UDP dumbbell: the replayed aggregate must preserve
  // the recorded burstiness (same c.o.v. of the offered process).
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.num_clients = 40;
  sc.duration = 10.0;

  std::vector<Time> recorded;
  {
    Simulator sim(sc.seed);
    TopoNet net(sim, make_dumbbell_spec(sc));
    ArrivalTraceRecorder rec(net.measured_queue());
    net.start_sources();
    sim.run(sc.duration);
    recorded = rec.times();
  }
  ASSERT_GT(recorded.size(), 10000u);

  BinnedCounter original(sc.rtt_prop(), sc.warmup);
  for (Time t : recorded) original.record(t);

  // Replay through one UDP client on an *uncongested* dumbbell and verify
  // the offered process reaching the gateway keeps its c.o.v.
  Scenario replay_sc = sc;
  replay_sc.transport = Transport::kUdp;
  replay_sc.num_clients = 1;
  replay_sc.bottleneck_bw_bps = 1e9;  // no shaping on replay
  replay_sc.client_bw_bps = 1e9;
  Simulator sim(99);
  TopoNet net(sim, make_dumbbell_spec(replay_sc));
  BinnedCounter replayed(sc.rtt_prop(), sc.warmup);
  net.measured_queue().taps().add_arrival_listener(
      [&](const Packet& p, Time now) {
        if (p.type == PacketType::kData) replayed.record(now);
      });
  TraceSource src(sim, net.sender(0), recorded);
  src.start();
  sim.run(sc.duration);

  const double cov_orig = original.stats_until(sc.duration).cov();
  const double cov_replay = replayed.stats_until(sc.duration).cov();
  EXPECT_NEAR(cov_replay, cov_orig, 0.1 * cov_orig);
}

}  // namespace
}  // namespace burst
