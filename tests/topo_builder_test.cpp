#include "src/topo/builder.hpp"

#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/topo/parser.hpp"
#include "src/topo/runner.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

Scenario small_scenario() {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.duration = 5.0;
  return sc;
}

void expect_same_run(const ExperimentResult& a, const ExperimentResult& b) {
  // Bit-identical scalars, including the event count: the two routes must
  // execute the exact same simulation, not a statistically similar one.
  EXPECT_EQ(a.cov, b.cov);
  EXPECT_EQ(a.poisson_cov, b.poisson_cov);
  EXPECT_EQ(a.app_generated, b.app_generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.gw_arrivals, b.gw_arrivals);
  EXPECT_EQ(a.gw_drops, b.gw_drops);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.dupacks, b.dupacks);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.delay.mean(), b.delay.mean());
  EXPECT_EQ(a.sim_events, b.sim_events);
}

// The paper dumbbell written out as a .topo file (the shape of
// examples/topologies/dumbbell_n60.topo) at small_scenario()'s size.
constexpr const char* kDumbbellText = R"(
set clients 10
set duration 5
node client count $clients
node gateway
node server
link gateway server rate $bottleneck_bw delay $bottleneck_delay queue gateway
link server gateway rate $bottleneck_bw delay $bottleneck_delay
link client gateway rate $client_bw delay $client_delay
link gateway client rate $client_bw delay $client_delay
flow client server
measure gateway server
)";

TEST(TopoBuilder, ParsedDumbbellRunsBitIdentically) {
  // The load-bearing equivalence: the dumbbell declared in a .topo file
  // — parsed, generically routed and wired — executes the identical
  // event sequence as run_experiment on the same scenario.
  TopoError err;
  const auto spec = parse_topo(kDumbbellText, "dumbbell", &err);
  ASSERT_TRUE(spec.has_value()) << err.render("inline");
  expect_same_run(run_experiment(small_scenario()), run_topo_experiment(*spec));
}

TEST(TopoBuilder, ParsedDumbbellMatchesForRedAndDelack) {
  Scenario sc = small_scenario();
  sc.gateway = GatewayQueue::kRed;
  sc.delayed_ack = true;
  sc.transport = Transport::kNewReno;
  TopoError err;
  const auto spec =
      parse_topo(kDumbbellText, "dumbbell", &err,
                 {{"queue", "red"}, {"delack", "1"}, {"transport", "newreno"}});
  ASSERT_TRUE(spec.has_value()) << err.render("inline");
  expect_same_run(run_experiment(sc), run_topo_experiment(*spec));
}

TEST(TopoBuilder, CanonicalDumbbellKeepsItsHistoricalMetricNames) {
  const Scenario sc = small_scenario();
  const ExperimentResult dumbbell = run_topo_experiment(make_dumbbell_spec(sc));
  EXPECT_NE(dumbbell.metrics.find("queue.gateway.drops"), nullptr);
  EXPECT_NE(dumbbell.metrics.find("link.bottleneck.delivered"), nullptr);
  EXPECT_EQ(dumbbell.metrics.find("queue.measured.drops"), nullptr);
  const ExperimentResult lot = run_topo_experiment(make_tandem_spec(sc, 0.9));
  EXPECT_NE(lot.metrics.find("queue.measured.drops"), nullptr);
  EXPECT_EQ(lot.metrics.find("queue.gateway.drops"), nullptr);
}

TEST(TopoBuilder, ParkingLotRunsClean) {
  Scenario sc = small_scenario();
  const ExperimentResult r = run_topo_experiment(make_tandem_spec(sc, 0.9));
  EXPECT_EQ(r.routing_errors, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.cov, 0.0);
}

TEST(TopoBuilder, MultiGroupGraphRoutesEveryFlow) {
  // Two client groups with different edge delays through two bottlenecks
  // — a graph neither generated topology can express.
  constexpr const char* kText = R"(
set clients 4
set duration 5
node near count $clients
node far count $clients
node gw1
node gw2
node server
link gw1 gw2 rate $bottleneck_bw delay $bottleneck_delay queue droptail
link gw2 server rate 30Mbps delay $bottleneck_delay queue droptail
link server gw2 rate 30Mbps delay $bottleneck_delay
link gw2 gw1 rate $bottleneck_bw delay $bottleneck_delay
link near gw1 rate $client_bw delay 5ms
link gw1 near rate $client_bw delay 5ms
link far gw1 rate $client_bw delay 40ms
link gw1 far rate $client_bw delay 40ms
flow near server
flow far server
measure gw1 gw2
)";
  TopoError err;
  const auto spec = parse_topo(kText, "multigroup", &err);
  ASSERT_TRUE(spec.has_value()) << err.render("inline");
  const ExperimentResult r = run_topo_experiment(*spec);
  EXPECT_EQ(r.routing_errors, 0u);
  EXPECT_GT(r.delivered, 0u);
  // Every one of the 8 senders got packets through (fairness is defined
  // and positive only if all flows delivered something).
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
}

TEST(TopoBuilder, MeasuredLinkFollowsTheMeasureStatement) {
  Scenario sc = small_scenario();
  const TopoSpec spec = make_tandem_spec(sc, 0.9);
  Simulator sim(sc.seed);
  TopoNet net(sim, spec);
  // measure_link = 0 is the first bottleneck statement.
  EXPECT_EQ(&net.measured_link(), &net.link(0));
  EXPECT_EQ(&net.measured_queue(), &net.link(0).queue());
}

}  // namespace
}  // namespace burst
