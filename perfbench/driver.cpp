// perfbench_driver: the repository benchmark's native half.
//
// One invocation is one repetition of one workload in a fresh process, so
// peak RSS is per run. It times each layer from outside, by calling the
// layer's public functions in the order burstsim/burstcamp do:
//
//   make_dumbbell_spec                 -> topo.spec_s
//   make_lp_partition                  -> topo.partition_s
//   Simulator / ParallelRuntime + TopoNet (+ TraceSink ring) -> topo.build_s
//   TopoNet::start_sources             -> part of setup
//   Simulator::run / ParallelRuntime::run
//   TraceSink::write_jsonl / write_chrome_trace / write_runtime_trace
//   run_campaign (cold into a fresh cache, then a warm rerun)
//
// and prints one JSON object with the raw timings and every count the
// output checks need; perfbench/run.py repeats, checks and summarizes.
//
// usage:
//   perfbench_driver run WORKLOAD --seed=N --work=DIR [--lp=K] [--profile]
//   perfbench_driver probes
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/scenario.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/runtime_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/run/campaign.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/parallel/runtime.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/timer.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss would also count the parent's pages when it was started by a
// vfork-ing launcher (execve carries the old image's high-water mark).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Flat JSON object writer: numbers, strings and number arrays only.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    std::ostringstream os;
    os.precision(17);
    os << (std::isfinite(v) ? v : -1.0);
    return raw(k, os.str());
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& nums(const std::string& k, const std::vector<double>& v) {
    std::ostringstream os;
    os.precision(17);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << ']';
    return raw(k, os.str());
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
    return *this;
  }
  std::string body_;
};

// ---- Workload scenarios -------------------------------------------------

// The paper's heavy-congestion point: Reno over a RED gateway, N=60.
Scenario paper_n60(std::uint64_t seed, Time duration) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  sc.seed = seed;
  return sc;
}

// N=10^4 under mean-field scaling from the paper's N=60 point, built the
// way bench/fig_meanfield does: the scaled Scenario through
// make_dumbbell_spec (never --set=meanfield_base on dumbbell_n60.topo).
Scenario meanfield_n10k(std::uint64_t seed) {
  Scenario sc = paper_n60(seed, 1.0);
  sc.num_clients = 10000;
  sc.meanfield_base = 60;
  sc.warmup = 0.4;  // below the horizon, so c.o.v. is measured
  return sc;
}

constexpr Time kPaperHorizon = 200.0;  // 10x the paper's 20 s
constexpr Time kTracedHorizon = 20.0;  // the paper's 20 s

// ---- Setup: spec -> partition -> engine + TopoNet -> sources ------------

struct Built {
  TopoSpec spec;
  LpPartition part;
  std::unique_ptr<TraceSink> trace;
  std::unique_ptr<Simulator> seq;
  std::unique_ptr<ParallelRuntime> rt;
  std::unique_ptr<TopoNet> net;  // last: destroyed before its engine
  double spec_s = 0.0;
  double partition_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
  double setup_s() const { return spec_s + partition_s + build_s + start_s; }
};

// Builds @p sc on @p lp logical processes up to its first event. @p traced
// reserves a TraceSink and taps every site with the canonical dumbbell's
// names, as burstsim --trace-out does.
std::unique_ptr<Built> build(const Scenario& sc, int lp, bool traced) {
  auto b = std::make_unique<Built>();
  double t = now_s();
  b->spec = make_dumbbell_spec(sc);
  double t1 = now_s();
  b->spec_s = t1 - t;
  t = t1;
  b->part = make_lp_partition(b->spec, lp);
  t1 = now_s();
  b->partition_s = t1 - t;
  t = t1;
  if (traced) b->trace = std::make_unique<TraceSink>();
  if (b->part.shards > 1) {
    b->rt = std::make_unique<ParallelRuntime>(b->part.shards,
                                              b->part.lookahead, sc.seed);
    b->net = std::make_unique<TopoNet>(*b->rt, b->part, b->spec);
  } else {
    b->seq = std::make_unique<Simulator>(sc.seed);
    b->net = std::make_unique<TopoNet>(*b->seq, b->spec);
  }
  if (traced) {
    if (b->rt) b->rt->enable_window_log();
    b->net->attach_trace(*b->trace, {"queue:gateway", "link:bottleneck",
                                     "sink:server"});
  }
  t1 = now_s();
  b->build_s = t1 - t;
  t = t1;
  b->net->start_sources();
  b->start_s = now_s() - t;
  return b;
}

// Seconds of extra set-ups each run makes after the workload itself, so
// setup_s is a median over several samples.
constexpr double kSetupBudgetS = 0.2;

// Repeats @p one (which returns a setup time) until kSetupBudgetS seconds
// have passed and at least @p min_samples were taken.
std::vector<double> repeat_setup(const std::function<double()>& one,
                                 int min_samples) {
  std::vector<double> out;
  const double t0 = now_s();
  while (static_cast<int>(out.size()) < min_samples ||
         now_s() - t0 < kSetupBudgetS) {
    out.push_back(one());
  }
  return out;
}

// ---- One simulation run (paper_n60, meanfield_n10k_lp2, traced_n60_lp2) --

struct SimRun {
  double setup_s = 0.0, run_s = 0.0, export_s = 0.0, wall_s = 0.0;
  double spec_s = 0.0, partition_s = 0.0, build_s = 0.0;
  double jsonl_s = 0.0, perfetto_s = 0.0;
  std::uint64_t export_bytes = 0, jsonl_lines = 0;
  std::uint64_t trace_records = 0, trace_held = 0;
  int shards = 1;
  std::uint64_t events = 0, scheduled = 0, peak_pending = 0;
  std::uint64_t delivered = 0, routing_errors = 0;
  std::uint64_t gw_arrivals = 0, gw_drops = 0, gw_departures = 0,
                gw_backlog = 0;
  std::uint64_t timeouts = 0, retransmits = 0, dupacks = 0;
  std::uint64_t arena_bytes = 0, flows = 0;
  double cov = 0.0;
  // Parallel telemetry (lp > 1 only).
  std::uint64_t windows = 0, msgs = 0, merge_high_water = 0;
  double lp_run_s = 0.0, lp_wait_s = 0.0;
  std::array<double, kProfilePhases> phase_s{};
};

// Writes one export to @p path and returns its size in bytes (0 on a
// failed or short write).
std::uint64_t write_export(const fs::path& path,
                           const std::function<bool(std::ostream&)>& fn) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out || !fn(out) || !out.flush()) return 0;
  out.close();
  return static_cast<std::uint64_t>(fs::file_size(path));
}

std::uint64_t count_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  std::uint64_t n = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    n += static_cast<std::uint64_t>(
        std::count(buf.data(), buf.data() + in.gcount(), '\n'));
  }
  return n;
}

SimRun run_sim(const Scenario& sc, int lp, bool traced, bool profile,
               const fs::path& work) {
  SimRun r;
  const double t0 = now_s();
  std::unique_ptr<Built> b = build(sc, lp, traced);
  TopoNet& net = *b->net;
  Queue& q = net.measured_queue();
  Simulator& msim = net.measured_sim();
  BinnedCounter bins(sc.rtt_prop(), sc.warmup);
  q.taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type == PacketType::kData) bins.record(msim.now());
  });
  // The profiler covers the run alone, so its phases split the run's
  // ns/event. It is per thread: profile sequential runs only.
  Profiler prof;
  Profiler* prev = profile ? Profiler::install(&prof) : nullptr;
  const double t1 = now_s();
  if (b->rt) {
    b->rt->run(sc.duration);
  } else {
    b->seq->run(sc.duration);
  }
  const double t2 = now_s();
  if (profile) Profiler::install(prev);
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1;
  r.spec_s = b->spec_s;
  r.partition_s = b->partition_s;
  r.build_s = b->build_s;
  for (std::size_t i = 0; i < kProfilePhases; ++i) {
    r.phase_s[i] = prof.seconds(static_cast<ProfilePhase>(i));
  }

  r.shards = b->part.shards;
  if (b->rt) {
    r.events = b->rt->total_events();
    r.scheduled = b->rt->total_scheduled();
    r.peak_pending = b->rt->max_peak_pending();
    r.windows = b->rt->stats().front().windows;
    for (const LpStats& s : b->rt->stats()) {
      r.msgs += s.msgs_in;
      r.merge_high_water = std::max(r.merge_high_water, s.merge_high_water);
      r.lp_run_s += s.run_s;
      r.lp_wait_s += s.wait_s;
    }
  } else {
    r.events = b->seq->events_run();
    r.scheduled = b->seq->scheduler().scheduled_count();
    r.peak_pending = b->seq->scheduler().peak_pending();
  }

  // Trace export, as burstsim --trace-out writes it: the merged JSONL and
  // Perfetto views, plus the per-LP runtime timeline for parallel runs.
  if (traced) {
    const double e0 = now_s();
    net.finalize_trace();
    const TraceSink& sink = *b->trace;
    r.trace_records = sink.emitted();
    r.trace_held = sink.size();
    double e = now_s();
    const fs::path jsonl = work / "trace.jsonl";
    const std::uint64_t jsonl_bytes = write_export(
        jsonl, [&](std::ostream& os) { return sink.write_jsonl(os); });
    r.jsonl_s = now_s() - e;
    e = now_s();
    const std::uint64_t perfetto_bytes =
        write_export(work / "trace.perfetto.json", [&](std::ostream& os) {
          return sink.write_chrome_trace(os);
        });
    r.perfetto_s = now_s() - e;
    std::uint64_t runtime_bytes = 0;
    if (b->rt) {
      std::vector<LpPhase> phases;
      int id = 0;
      for (const LpStats& s : b->rt->stats()) {
        LpPhase ph;
        ph.lp = id++;
        ph.events = s.events;
        ph.windows = s.windows;
        ph.msgs_in = s.msgs_in;
        ph.msgs_out = s.msgs_out;
        ph.merge_high_water = s.merge_high_water;
        ph.chan_overflows = s.chan_overflows;
        ph.chan_high_water = s.chan_high_water;
        ph.horizon_advance_mean =
            s.windows > 0 ? s.horizon_advance / static_cast<double>(s.windows)
                          : 0.0;
        ph.run_s = s.run_s;
        ph.wait_s = s.wait_s;
        phases.push_back(ph);
      }
      std::vector<LpWindowPhase> windows;
      const auto& wlog = b->rt->window_log();
      for (std::size_t k = 0; k < wlog.size(); ++k) {
        for (const LpWindowSample& w : wlog[k]) {
          LpWindowPhase wp;
          wp.lp = static_cast<int>(k);
          wp.gmin = w.gmin;
          wp.t0_s = w.t0_s;
          wp.pub_wait_s = w.pub_wait_s;
          wp.run_s = w.run_s;
          wp.flush_wait_s = w.flush_wait_s;
          wp.merge_s = w.merge_s;
          wp.events = w.events;
          wp.staged = w.staged;
          windows.push_back(wp);
        }
      }
      runtime_bytes = write_export(
          work / "trace.runtime.perfetto.json", [&](std::ostream& os) {
            return write_runtime_trace(os, phases, windows);
          });
    }
    r.export_s = now_s() - e0;
    // A failed export reports 0 bytes, which the output checks reject.
    r.export_bytes = jsonl_bytes > 0 && perfetto_bytes > 0 &&
                             (b->rt == nullptr || runtime_bytes > 0)
                         ? jsonl_bytes + perfetto_bytes + runtime_bytes
                         : 0;
    r.jsonl_lines = count_lines(jsonl);
  }
  r.wall_s = now_s() - t0;

  r.cov = bins.stats_until(sc.duration).cov();
  r.delivered = net.total_delivered();
  r.routing_errors = net.routing_errors();
  const QueueStats& qs = q.stats();
  r.gw_arrivals = qs.arrivals;
  r.gw_drops = qs.drops;
  r.gw_departures = qs.departures;
  r.gw_backlog = q.len();
  r.flows = static_cast<std::uint64_t>(net.num_flows());
  r.arena_bytes = net.arena_bytes_reserved();
  for (int i = 0; i < net.num_flows(); ++i) {
    if (const TcpSender* s = net.tcp_sender(i)) {
      r.timeouts += s->stats().timeouts;
      r.retransmits += s->stats().retransmits;
      r.dupacks += s->stats().dupacks;
    }
  }
  return r;
}

void emit_phases(Json& j, const std::array<double, kProfilePhases>& s) {
  for (std::size_t i = 0; i < kProfilePhases; ++i) {
    j.num("phase_" + std::string(to_string(static_cast<ProfilePhase>(i))) +
              "_s",
          s[i]);
  }
}

void emit_sim(Json& j, const SimRun& r) {
  j.num("wall_s", r.wall_s)
      .num("run_s", r.run_s)
      .num("export_s", r.export_s)
      .num("spec_s", r.spec_s)
      .num("partition_s", r.partition_s)
      .num("build_s", r.build_s)
      .num("jsonl_s", r.jsonl_s)
      .num("perfetto_s", r.perfetto_s)
      .count("export_bytes", r.export_bytes)
      .count("jsonl_lines", r.jsonl_lines)
      .count("trace_records", r.trace_records)
      .count("trace_held", r.trace_held)
      .count("shards", static_cast<std::uint64_t>(r.shards))
      .count("events", r.events)
      .count("scheduled", r.scheduled)
      .count("peak_pending", r.peak_pending)
      .count("delivered", r.delivered)
      .count("routing_errors", r.routing_errors)
      .count("gw_arrivals", r.gw_arrivals)
      .count("gw_drops", r.gw_drops)
      .count("gw_departures", r.gw_departures)
      .count("gw_backlog", r.gw_backlog)
      .count("timeouts", r.timeouts)
      .count("retransmits", r.retransmits)
      .count("dupacks", r.dupacks)
      .count("arena_bytes", r.arena_bytes)
      .count("flows", r.flows)
      .num("cov", r.cov)
      .count("windows", r.windows)
      .count("msgs", r.msgs)
      .count("merge_high_water", r.merge_high_water)
      .num("lp_run_s", r.lp_run_s)
      .num("lp_wait_s", r.lp_wait_s);
  emit_phases(j, r.phase_s);
}

// ---- Campaign -----------------------------------------------------------

// A log sink that remembers when run_campaign first writes to it: the
// "campaign: N points, ..." line, which follows planning and the cache
// probe. Everything written is discarded.
class FirstWriteClock : public std::streambuf {
 public:
  double first_s = 0.0;

 protected:
  int_type overflow(int_type c) override {
    mark();
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    mark();
    return n;
  }

 private:
  void mark() {
    if (first_s == 0.0) first_s = now_s();
  }
};

// The unique scenarios of a finished campaign, deduplicated by the key
// run_campaign uses for @p opts.
std::vector<Scenario> unique_scenarios(const CampaignOutput& out,
                                       const CampaignOptions& opts) {
  ExperimentOptions eopts;
  eopts.lp_shards = opts.lp_shards;
  std::vector<Scenario> unique;
  std::unordered_set<ScenarioKey, ScenarioKeyHash> seen;
  for (const auto& [name, series] : out.sweeps) {
    for (const SweepSeries& ser : series) {
      for (const SweepPoint& pt : ser.points) {
        if (seen.insert(scenario_key(pt.result.scenario, eopts)).second) {
          unique.push_back(pt.result.scenario);
        }
      }
    }
  }
  return unique;
}

void emit_campaign_stats(Json& j, const std::string& p,
                         const CampaignStats& s) {
  j.count(p + "planned", s.planned)
      .count(p + "unique", s.unique)
      .count(p + "cache_hits", s.cache_hits)
      .count(p + "simulated", s.simulated)
      .count(p + "store_skipped", s.store_skipped)
      .count(p + "events", s.sim_events)
      .count(p + "peak_pending_max", s.peak_pending_max)
      .num(p + "sim_wall_s", s.sim_wall_s);
}

constexpr unsigned kCampaignWorkers = 2;

void run_campaign_workload(Json& j, std::uint64_t seed, bool profile,
                           const fs::path& work) {
  Scenario base = Scenario::paper_default();
  base.seed = seed;
  FirstWriteClock planned;
  std::ostream log(&planned);
  const double t0 = now_s();
  const std::vector<CampaignSweep> sweeps = paper_figure_campaign(base);
  CampaignOptions opts;
  opts.cache_dir = (work / "cache").string();
  opts.threads = kCampaignWorkers;
  opts.artifact_dir = (work / "cold").string();
  opts.profile = profile;
  opts.log = &log;
  const CampaignOutput cold = run_campaign(sweeps, opts);
  const double t1 = now_s();
  const double plan_s = planned.first_s - t0;
  opts.artifact_dir = (work / "warm").string();
  opts.profile = false;
  opts.log = nullptr;
  const CampaignOutput warm = run_campaign(sweeps, opts);
  const double t2 = now_s();
  const double rss = peak_rss_mb();

  // Setup, spread over the campaign's many builds: the cold pass's own
  // planning and cache probe, timed inside run_campaign, plus building
  // every unique scenario's network up to its first event. run_experiment
  // does those builds inside the simulation tasks, so they are re-run
  // here, outside the campaign, several times for a steady median.
  const std::vector<Scenario> unique = unique_scenarios(cold, opts);
  const std::vector<double> setups = repeat_setup(
      [&] {
        const double s0 = now_s();
        for (const Scenario& sc : unique) build(sc, 1, false);
        return plan_s + (now_s() - s0);
      },
      1);

  j.num("wall_s", t2 - t0)
      .num("cold_s", t1 - t0)
      .num("warm_s", t2 - t1)
      .num("peak_rss_mb", rss)
      .num("plan_s", plan_s)
      .nums("setup_samples", setups)
      .count("setup_builds", unique.size())
      .count("workers", kCampaignWorkers)
      .count("events", cold.stats.sim_events);
  emit_campaign_stats(j, "cold_", cold.stats);
  emit_campaign_stats(j, "warm_", warm.stats);
  emit_phases(j, cold.stats.phase_seconds);
}

// ---- Layer probes (the bench/packet_path row definitions) --------------

// splitmix64 jitter, as in bench/packet_path.
struct Mix {
  std::uint64_t s;
  double next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

// Scheduler schedule+pop cycle at heap depth 64 (calib_sched_pop_d64).
double probe_sched_pop_d64(std::uint64_t ops) {
  Scheduler s;
  Mix mix{42};
  for (int i = 0; i < 64; ++i) s.schedule_at(mix.next(), [] {});
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto ready = s.take_next();
    s.schedule_at(ready.at + mix.next(), [] {});
  }
  const double ns = (now_s() - t0) * 1e9 / static_cast<double>(ops);
  while (!s.empty()) s.take_next();
  return ns;
}

Packet data_packet(std::int64_t seq) {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = 1040;
  p.seq = seq;
  return p;
}

// One link hop with a standing backlog of @p backlog packets
// (link_hop_saturated at 50, link_hop_idle at 1).
double probe_link_hop(std::uint64_t hops, int backlog) {
  Simulator sim;
  SimplexLink link(sim, std::make_unique<DropTailQueue>(100000), 32e6,
                   ms(20));
  std::uint64_t done = 0;
  std::int64_t next_seq = 0;
  link.set_receiver([&](const Packet&) {
    if (++done >= hops) {
      sim.stop();
      return;
    }
    link.send(data_packet(next_seq++));
  });
  for (int i = 0; i < backlog; ++i) link.send(data_packet(next_seq++));
  const double t0 = now_s();
  sim.run();
  return (now_s() - t0) * 1e9 / static_cast<double>(hops);
}

// RTO rearm per ACK with 10^5 idle lazy timers parked far in the future
// (timer_rearm_pending100000).
double probe_timer_rearm_pending(std::uint64_t ops, std::size_t background) {
  const Time horizon = 0.001 * static_cast<double>(ops) + 1.0;
  Simulator sim;
  Mix mix{5};
  std::uint64_t fired = 0;
  const auto on_fire = [&fired] { ++fired; };
  std::vector<std::unique_ptr<Timer>> idle;
  idle.reserve(background);
  for (std::size_t i = 0; i < background; ++i) {
    idle.push_back(std::make_unique<Timer>(sim, on_fire, Timer::Mode::kLazy));
    idle.back()->schedule(horizon + 3600.0 + 3600.0 * mix.next());
  }
  Timer rto(sim, on_fire, Timer::Mode::kLazy);
  std::uint64_t remaining = ops;
  std::function<void()> drive = [&] {
    rto.schedule(0.25);
    if (--remaining > 0) sim.schedule(0.001, [&] { drive(); });
  };
  sim.schedule(0.001, [&] { drive(); });
  const double t0 = now_s();
  sim.run(horizon);
  const double ns = (now_s() - t0) * 1e9 / static_cast<double>(ops);
  // Only the driving timer may fire, once, after its last rearm: the
  // parked ones lie past the horizon.
  if (fired > 1) {
    std::cerr << "perfbench_driver: timer probe fired " << fired
              << " timers; it measures rearms only\n";
    std::exit(1);
  }
  return ns;
}

// TopoNet construction at N=10^4 (sequential, mean-field scaled spec).
double probe_build_n1e4() {
  const Scenario sc = meanfield_n10k(1);
  const TopoSpec spec = make_dumbbell_spec(sc);
  Simulator sim(sc.seed);
  const double t0 = now_s();
  TopoNet net(sim, spec);
  return now_s() - t0;
}

// Operations per probe sample, and samples per probe.
constexpr std::uint64_t kProbeOps = 1'000'000;
constexpr int kProbeRounds = 3;

// Prints each probe's samples under its per-layer metric name.
int run_probes() {
  // Interleaved: every round runs each probe once, so slow drift on the
  // host spreads over all rows instead of landing on one.
  std::vector<double> pop, sat, idle, rearm, build_s;
  for (int k = 0; k < kProbeRounds; ++k) {
    pop.push_back(probe_sched_pop_d64(kProbeOps * 2));
    sat.push_back(probe_link_hop(kProbeOps, 50));
    idle.push_back(probe_link_hop(kProbeOps, 1));
    rearm.push_back(probe_timer_rearm_pending(kProbeOps, 100000));
    build_s.push_back(probe_build_n1e4());
  }
  Json j;
  j.nums("sim.sched_pop_d64_ns", pop)
      .nums("net.link_hop_saturated_ns", sat)
      .nums("net.link_hop_idle_ns", idle)
      .nums("sim.timer_rearm_pending1e5_ns", rearm)
      .nums("topo.build_n1e4_s", build_s);
  std::cout << j.render() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_driver run WORKLOAD --seed=N --work=DIR "
               "[--lp=K] [--profile]\n"
               "       perfbench_driver probes\n"
               "workloads: paper_n60 meanfield_n10k_lp2 traced_n60_lp2 "
               "campaign_paper\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  std::string work;
  int lp = 0;  // 0 = the workload's own LP count
  bool profile = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--work=", 0) == 0) {
      work = a.substr(7);
    } else if (a.rfind("--lp=", 0) == 0) {
      lp = std::atoi(a.c_str() + 5);
    } else if (a == "--profile") {
      profile = true;
    } else if (a.rfind("--", 0) != 0 && workload.empty()) {
      workload = a;
    } else {
      return usage();
    }
  }
  if (mode == "probes") return run_probes();
  if (mode != "run" || work.empty()) return usage();
  fs::create_directories(work);

  Json j;
  j.str("workload", workload).count("seed", seed);
  if (workload == "campaign_paper") {
    run_campaign_workload(j, seed, profile, work);
    std::cout << j.render() << std::endl;
    return 0;
  }

  Scenario sc;
  bool traced = false;
  if (workload == "paper_n60") {
    sc = paper_n60(seed, kPaperHorizon);
    if (lp == 0) lp = 1;
  } else if (workload == "meanfield_n10k_lp2") {
    sc = meanfield_n10k(seed);
    if (lp == 0) lp = 2;
  } else if (workload == "traced_n60_lp2") {
    sc = paper_n60(seed, kTracedHorizon);
    traced = true;
    if (lp == 0) lp = 2;
  } else {
    return usage();
  }

  const SimRun r = run_sim(sc, lp, traced, profile, work);
  const double rss = peak_rss_mb();
  j.num("peak_rss_mb", rss);
  emit_sim(j, r);

  // The traced run's untraced twin: tracing must add no events.
  if (traced) {
    const SimRun twin = run_sim(sc, lp, false, false, work);
    j.count("twin_events", twin.events).count("twin_delivered",
                                              twin.delivered);
  }
  // More setups of the same workload, for a steady setup_s median.
  std::vector<double> setups = {r.setup_s};
  const std::vector<double> more = repeat_setup(
      [&] { return build(sc, lp, traced)->setup_s(); }, 2);
  setups.insert(setups.end(), more.begin(), more.end());
  j.nums("setup_samples", setups);
  std::cout << j.render() << std::endl;
  return 0;
}
