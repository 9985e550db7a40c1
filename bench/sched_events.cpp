// sched_events: the event-core performance probe.
//
// Measures the scheduler hot loop in isolation (schedule/pop, with and
// without cancellations, at the pending depths a paper run actually
// sees), the pop/re-arm steady state at 10^3..10^6 armed deadlines, a
// replay of a real paper run's scheduler op stream, a timer chain and a
// full N=100-client Reno/RED experiment, and writes the numbers to a
// JSON file (default BENCH_sched.json) so the perf trajectory across
// PRs has data instead of folklore.
//
// Modes:
//   (default)  full runs: ~1e7 hot-loop ops
//   --smoke    CI-sized: ~1e6 ops (seconds of wall time); the replay
//              and experiment rows are identical in both modes
//
// Every workload is deterministic (fixed seeds, fixed op mixes); wall
// times are best-of --repeat (default 3) to shed scheduler noise.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace burst;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchRow {
  std::string name;
  std::uint64_t ops = 0;     // scheduler operations (or simulator events)
  double wall_s = 0.0;       // best-of-repeat wall time
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

BenchRow finish(std::string name, std::uint64_t ops, double best_wall) {
  BenchRow r;
  r.name = std::move(name);
  r.ops = ops;
  r.wall_s = best_wall;
  r.ns_per_op = best_wall * 1e9 / static_cast<double>(ops);
  r.ops_per_sec = static_cast<double>(ops) / best_wall;
  return r;
}

// Cheap deterministic time jitter, independent of src/sim/random so the
// bench exercises the scheduler, not the RNG.
struct Mix {
  std::uint64_t s;
  double next() {  // in [0, 1)
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

// The hot loop of every simulation: pop the earliest event, schedule a
// successor. Heap depth is held at `depth` (a Table-1 N=60 run keeps a few
// hundred events pending: one per timer/in-flight packet).
BenchRow bench_schedule_pop(std::uint64_t ops, std::size_t depth, int repeat) {
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Scheduler s;
    Mix mix{42};
    Time now = 0.0;
    for (std::size_t i = 0; i < depth; ++i) {
      s.schedule_at(mix.next(), [] {});
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      s.schedule_at(now + mix.next(), [] {});
    }
    best = std::min(best, now_s() - t0);
    while (!s.empty()) s.take_next();
  }
  return finish("schedule_pop_d" + std::to_string(depth), ops, best);
}

// Same loop with a cancellation mix: TCP retransmit timers are rearmed on
// (almost) every ACK, so cancels are a first-class hot-path operation.
BenchRow bench_schedule_cancel_pop(std::uint64_t ops, std::size_t depth,
                                   int repeat) {
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Scheduler s;
    Mix mix{7};
    Time now = 0.0;
    std::vector<EventId> live(depth, kInvalidEventId);
    for (std::size_t i = 0; i < depth; ++i) {
      live[i] = s.schedule_at(mix.next(), [] {});
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < ops; ++i) {
      // Rearm a pseudo-random timer: cancel + schedule, then pop one.
      const std::size_t k = static_cast<std::size_t>(mix.next() * depth);
      s.cancel(live[k]);
      live[k] = s.schedule_at(now + mix.next(), [] {});
      auto ready = s.take_next();
      now = ready.at;
      const std::size_t j = static_cast<std::size_t>(mix.next() * depth);
      if (!s.pending(live[j])) live[j] = s.schedule_at(now + mix.next(), [] {});
    }
    best = std::min(best, now_s() - t0);
  }
  // 3 scheduler ops (cancel, schedule, pop) + 1 pending probe per iter.
  return finish("schedule_cancel_pop_d" + std::to_string(depth), ops * 4, best);
}

// The mean-field steady state: `pending` timers permanently armed while
// the hot loop pops the earliest and re-arms it over a fixed horizon.
// Far deadlines park in the timing wheel's O(1) buckets, so the cost
// should track the near-term horizon, not the armed population.
BenchRow bench_pop_rearm(std::uint64_t ops, std::size_t pending,
                         int repeat) {
  constexpr Time kHorizon = 2.0;  // seconds of re-arm spread (RTO-scale)
  // The wheel's O(1) is amortized: cascades of coarse buckets land in
  // bursts as the cursor crosses level boundaries. A timed window
  // shorter than one full pass over the population samples an arbitrary
  // cascade phase (deterministically, since the op mix is fixed), so
  // time at least `pending` ops — every phase appears exactly once.
  const std::uint64_t timed_ops = std::max<std::uint64_t>(ops, pending);
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Scheduler s;
    Mix mix{1234};
    Time now = 0.0;
    const auto rearm = [&s, &now](Time at) {
      s.schedule_at(at, [] {}, now);
    };
    for (std::size_t i = 0; i < pending; ++i) {
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    // Untimed warm-up: pop/re-arm once through the whole initial cohort.
    // Arming `pending` deadlines from time zero piles them into a few
    // coarse wheel buckets whose one-off cascade cost would otherwise be
    // amortized over however many timed ops the mode runs — making ns/op
    // depend on --smoke vs full. The timed loop below sees steady state.
    for (std::size_t i = 0; i < pending; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < timed_ops; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    best = std::min(best, now_s() - t0);
  }
  return finish("pop_rearm_p" + std::to_string(pending), timed_ops, best);
}

// The scheduler alone under real traffic: records the op stream of the
// fig02 Reno/RED N=60 point (20 s simulated) in-process, then replays it
// against a fresh Scheduler — the same keys, cancels and pops in the same
// order, with trivial callbacks — checking that every scheduled and every
// popped event id matches the recording. ns per popped event is the
// scheduler's share of a paper run's per-event cost.
BenchRow bench_replay_fig02(int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = 20.0;
  std::vector<SchedulerOp> ops;
  std::vector<SchedulerOp>* prev = Scheduler::record_ops(&ops);
  run_experiment(sc);
  Scheduler::record_ops(prev);
  std::uint64_t pops = 0;
  for (const SchedulerOp& op : ops) {
    pops += op.kind == SchedulerOp::Kind::kPop ? 1 : 0;
  }
  double best = 1e99;
  bool ids_match = true;
  for (int rep = 0; rep < repeat; ++rep) {
    Scheduler s;
    EventId popped = kInvalidEventId;
    const double t0 = now_s();
    for (const SchedulerOp& op : ops) {
      switch (op.kind) {
        case SchedulerOp::Kind::kSchedule:
          ids_match &= s.schedule_at_reserved(
                           op.at, op.tie_time, op.seq,
                           [&popped, id = op.id] { popped = id; }) == op.id;
          break;
        case SchedulerOp::Kind::kCancel:
          s.cancel(op.id);
          break;
        case SchedulerOp::Kind::kPop:
          s.next_time();  // as Simulator::run does before each pop
          s.take_next().fn();
          ids_match &= popped == op.id;
          break;
      }
    }
    best = std::min(best, now_s() - t0);
  }
  if (!ids_match || pops == 0) {
    std::cerr << "sched_events: replay_fig02_n60 diverged from its "
                 "recording\n";
    std::exit(1);
  }
  return finish("replay_fig02_n60", pops, best);
}

BenchRow bench_timer_chain(std::uint64_t events, int repeat) {
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Simulator sim;
    std::uint64_t remaining = events;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(0.001, tick);
    };
    sim.schedule(0.001, tick);
    const double t0 = now_s();
    sim.run();
    best = std::min(best, now_s() - t0);
  }
  return finish("timer_chain", events, best);
}

BenchRow bench_experiment(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 100;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  double best = 1e99;
  std::uint64_t events = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc);
    best = std::min(best, now_s() - t0);
    events = r.sim_events ? r.sim_events : 1;
  }
  return finish("experiment_n100_reno_red", events, best);
}

void write_json(const std::string& path, const std::vector<BenchRow>& rows,
                bool smoke) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"sched_events\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"schema\": 1,\n"
      << "  \"results\": [\n";
  out.precision(6);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
        << ", \"wall_s\": " << r.wall_s << ", \"ns_per_op\": " << r.ns_per_op
        << ", \"ops_per_sec\": " << r.ops_per_sec << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.flush()) {
    std::cerr << "sched_events: failed to write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int repeat = 3;
  std::string out_path = "BENCH_sched.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::max(1, std::atoi(arg.c_str() + 9));
    } else {
      std::cerr << "usage: sched_events [--smoke] [--repeat=N] [--out=PATH]\n";
      return 2;
    }
  }

  const std::uint64_t hot_ops = smoke ? 1'000'000 : 10'000'000;
  // The experiment row runs the full 10 s in both modes: it is cheap
  // (~60 ms wall) and the first seconds are slow-start transient, so a
  // shorter smoke run would measure a different per-event cost mix than
  // the baseline and the regression gate would compare apples to pears.
  const double exp_duration = 10.0;

  std::vector<BenchRow> rows;
  rows.push_back(bench_schedule_pop(hot_ops, 64, repeat));
  rows.push_back(bench_schedule_pop(hot_ops, 512, repeat));
  rows.push_back(bench_schedule_cancel_pop(hot_ops / 2, 512, repeat));
  // Pop/re-arm steady state at 10^3..10^6 armed deadlines.
  for (const std::size_t pending :
       {std::size_t{1000}, std::size_t{10000}, std::size_t{100000},
        std::size_t{1000000}}) {
    rows.push_back(bench_pop_rearm(hot_ops / 10, pending, repeat));
  }
  rows.push_back(bench_replay_fig02(repeat));
  rows.push_back(bench_timer_chain(hot_ops / 2, repeat));
  rows.push_back(bench_experiment(exp_duration, repeat));

  for (const BenchRow& r : rows) {
    std::cout << r.name << ": " << r.ns_per_op << " ns/op  ("
              << static_cast<std::uint64_t>(r.ops_per_sec) << " ops/s, wall "
              << r.wall_s << " s)\n";
  }
  write_json(out_path, rows, smoke);
  return 0;
}
