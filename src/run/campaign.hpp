// Campaigns: declarative batches of client-count sweeps that run once
// per *unique* scenario instead of once per figure.
//
// A campaign is planned as the union of (sweep × config × client-count)
// points; identical scenarios (same fingerprint, see scenario_key.hpp)
// are deduplicated across sweeps, looked up in an optional on-disk
// ResultStore, and only the misses are simulated — through the shared
// Executor, with per-point seeds derived from values (not loop indices)
// so the cached and uncached paths are bit-identical. Artifacts are a
// per-sweep CSV plus a manifest.json recording seeds, cache hit/miss
// counts, wall time and the build version.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/sweep.hpp"
#include "src/obs/profile.hpp"
#include "src/run/executor.hpp"
#include "src/run/scenario_key.hpp"

namespace burst {

class ResultStore;

/// One named sweep: base scenario × configs × client counts, plus the
/// metric its CSV artifact reports.
struct CampaignSweep {
  std::string name;         // artifact stem, e.g. "fig02_cov"
  std::string metric_name;  // human label for the metric column group
  Scenario base;
  std::vector<int> client_counts;
  std::vector<SweepConfig> configs;
  double (*metric)(const ExperimentResult&) = nullptr;
};

struct CampaignOptions {
  /// Directory holding the ResultStore shard; empty disables caching.
  std::string cache_dir;
  /// --no-cache: when false, the store is neither read nor written.
  bool use_cache = true;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Where CSVs + manifest.json go; empty disables artifacts.
  std::string artifact_dir;
  /// Progress / summary lines go here when set (e.g. &std::cerr). Each
  /// line is flushed as written so progress is visible on non-TTY
  /// stdout/stderr (pipes, CI logs).
  std::ostream* log = nullptr;
  /// Installs a per-task Profiler around every simulated scenario and
  /// reports per-phase wall shares (dispatch/transport/queue/other) in
  /// CampaignStats and the log summary. Costs two clock reads per
  /// instrumented scope; leave off for benchmark-comparable timings.
  bool profile = false;
  /// Logical processes per simulated scenario (conservative parallel
  /// engine, DESIGN.md §13). 1 = sequential. Values > 1 salt every
  /// scenario key, so parallel campaigns never share cache entries with
  /// sequential ones; combine with --threads=1 to avoid oversubscribing
  /// cores (each miss then runs lp_shards LP threads itself).
  int lp_shards = 1;
};

struct CampaignStats {
  std::size_t planned = 0;     // sweep × config × count points
  std::size_t unique = 0;      // after cross-sweep dedup
  std::size_t cache_hits = 0;  // unique scenarios served from the store
  std::size_t simulated = 0;   // unique scenarios actually run HERE
  std::size_t farmed_out = 0;  // misses another worker simulated for us
  std::size_t store_skipped = 0;  // corrupt/stale store lines at load
  double wall_s = 0.0;

  // Scheduler perf counters aggregated over the *simulated* (cache-miss)
  // scenarios of this run; all zero on a fully cached campaign.
  std::uint64_t sim_events = 0;      // total events executed
  std::uint64_t peak_pending_max = 0;  // largest heap seen in any run
  double sim_wall_s = 0.0;           // summed per-run simulation wall time
  double events_per_sec = 0.0;       // sim_events / sim_wall_s

  /// Per-phase self-time seconds summed over all simulated tasks, indexed
  /// by ProfilePhase. All zero unless CampaignOptions::profile was set.
  std::array<double, kProfilePhases> phase_seconds{};

  /// Per-LP totals (events, messages, run vs barrier-wait wall seconds)
  /// summed over the simulated tasks; one entry per logical process.
  /// Empty unless lp_shards > 1 (cache hits carry no phase data).
  std::vector<LpPhase> lp_phases;
};

struct CampaignOutput {
  /// Per-sweep results, in input order: one SweepSeries per config.
  std::vector<std::pair<std::string, std::vector<SweepSeries>>> sweeps;
  CampaignStats stats;
};

/// How farm_points resolved a batch of unique points.
struct FarmCounts {
  std::size_t cache_hits = 0;  // served from the store at probe time
  std::size_t simulated = 0;   // simulated by THIS worker
  std::size_t farmed_out = 0;  // simulated by a concurrent worker
  std::vector<std::size_t> misses;  // indices the probe did not serve
};

/// The one probe -> claim -> simulate -> publish loop behind both
/// campaign front ends. Fills (*results)[i] for every keys[i]: with a
/// @p store a hit is read back (its scenario field is the caller's to
/// restore), and each miss is claimed, simulated by @p simulate(i) on one
/// of @p threads workers (0 = hardware concurrency, capped at the miss
/// count) and published, so any number of workers sharing the store's
/// directory simulate every point exactly once. With a null store every
/// point is simulated. @p on_probe runs once, after the probe and before
/// any simulation.
FarmCounts farm_points(
    ResultStore* store, const std::vector<ScenarioKey>& keys, unsigned threads,
    const std::function<ExperimentResult(std::size_t)>& simulate,
    std::vector<ExperimentResult>* results,
    const std::function<void(const FarmCounts&)>& on_probe = {},
    const std::function<void(const ExecutorProgress&)>& progress = {});

/// Plans, runs and (optionally) persists a campaign. Blocking.
CampaignOutput run_campaign(const std::vector<CampaignSweep>& sweeps,
                            const CampaignOptions& opts = {});

/// The full paper figure set (Figs 2, 3, 4, 13) over @p base. Figures 3,
/// 4 and 13 share every simulation (same scenarios, different metric
/// column), so the campaign runs ~half the naive task count.
std::vector<CampaignSweep> paper_figure_campaign(const Scenario& base);

/// The seed a campaign assigns to one point.
std::uint64_t campaign_point_seed(const Scenario& base,
                                  const std::string& config_name,
                                  int num_clients);

}  // namespace burst
