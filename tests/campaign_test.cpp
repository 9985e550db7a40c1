// Campaign determinism and cache robustness: the same campaign must
// produce bit-identical metrics with 1 thread, N threads, and from a
// warm cache; a damaged cache must fall back to re-simulation.
#include "src/run/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/run/result_store.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;

Scenario quick_base() {
  Scenario s = Scenario::paper_default();
  s.duration = 3.0;
  s.warmup = 1.0;
  return s;
}

std::vector<SweepConfig> two_configs() {
  return {{"Reno", [](Scenario& s) { s.transport = Transport::kReno; }},
          {"Vegas", [](Scenario& s) { s.transport = Transport::kVegas; }}};
}

CampaignSweep quick_sweep(const std::string& name) {
  CampaignSweep sw;
  sw.name = name;
  sw.metric_name = "c.o.v.";
  sw.base = quick_base();
  sw.client_counts = {6, 12};
  sw.configs = two_configs();
  sw.metric = [](const ExperimentResult& r) { return r.cov; };
  return sw;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

void expect_identical_series(const std::vector<SweepSeries>& a,
                             const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    EXPECT_EQ(a[s].name, b[s].name);
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      const ExperimentResult& ra = a[s].points[p].result;
      const ExperimentResult& rb = b[s].points[p].result;
      EXPECT_EQ(a[s].points[p].num_clients, b[s].points[p].num_clients);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(ra.cov, rb.cov);
      EXPECT_EQ(ra.delivered, rb.delivered);
      EXPECT_EQ(ra.loss_pct, rb.loss_pct);
      EXPECT_EQ(ra.timeouts, rb.timeouts);
      EXPECT_EQ(ra.dupacks, rb.dupacks);
      EXPECT_EQ(ra.fairness, rb.fairness);
      EXPECT_EQ(ra.delay.mean(), rb.delay.mean());
      EXPECT_EQ(ra.delay.count(), rb.delay.count());
    }
  }
}

TEST(Campaign, ThreadCountAndWarmCacheAreBitIdentical) {
  const std::string cache = fresh_dir("campaign_det_cache");
  const std::vector<CampaignSweep> sweeps{quick_sweep("det")};

  CampaignOptions serial;
  serial.threads = 1;

  CampaignOptions parallel;
  parallel.threads = 4;
  parallel.cache_dir = cache;  // cold: populates the store

  CampaignOptions warm;
  warm.threads = 4;
  warm.cache_dir = cache;  // warm: everything from the store

  const auto a = run_campaign(sweeps, serial);
  const auto b = run_campaign(sweeps, parallel);
  const auto c = run_campaign(sweeps, warm);

  EXPECT_EQ(a.stats.simulated, a.stats.unique);
  EXPECT_EQ(b.stats.simulated, b.stats.unique);
  EXPECT_EQ(c.stats.simulated, 0u);
  EXPECT_EQ(c.stats.cache_hits, c.stats.unique);

  expect_identical_series(a.sweeps[0].second, b.sweeps[0].second);
  expect_identical_series(a.sweeps[0].second, c.sweeps[0].second);
}

TEST(Campaign, MatchesDirectRunsExactly) {
  // Each campaign point is run_experiment on the base with the config
  // applied and the value-derived seed (config name, client count), so a
  // hand-built run of the same scenario gives the same numbers.
  const CampaignSweep sw = quick_sweep("match");
  std::vector<SweepSeries> direct(sw.configs.size());
  for (std::size_t c = 0; c < sw.configs.size(); ++c) {
    direct[c].name = sw.configs[c].name;
    for (const int n : sw.client_counts) {
      Scenario sc = sw.base;
      sc.num_clients = n;
      sw.configs[c].apply(sc);
      sc.seed = campaign_point_seed(sw.base, sw.configs[c].name, n);
      direct[c].points.push_back({n, run_experiment(sc)});
    }
  }
  const auto campaign = run_campaign({sw}, {});
  expect_identical_series(direct, campaign.sweeps[0].second);
}

TEST(Campaign, DeduplicatesAcrossSweeps) {
  // Two figures over the same base/configs/counts (the Fig 3/4/13
  // situation) must share every simulation.
  std::vector<CampaignSweep> sweeps{quick_sweep("figA"), quick_sweep("figB")};
  sweeps[1].metric = [](const ExperimentResult& r) { return r.loss_pct; };
  const auto out = run_campaign(sweeps, {});
  EXPECT_EQ(out.stats.planned, 8u);
  EXPECT_EQ(out.stats.unique, 4u);
  EXPECT_EQ(out.stats.simulated, 4u);
  expect_identical_series(out.sweeps[0].second, out.sweeps[1].second);
}

TEST(Campaign, NoCacheOptionBypassesTheStore) {
  const std::string cache = fresh_dir("campaign_nocache");
  std::vector<CampaignSweep> sweeps{quick_sweep("nocache")};
  CampaignOptions opts;
  opts.cache_dir = cache;
  opts.use_cache = false;
  const auto out = run_campaign(sweeps, opts);
  EXPECT_EQ(out.stats.cache_hits, 0u);
  EXPECT_EQ(out.stats.simulated, out.stats.unique);
  EXPECT_FALSE(fs::exists(cache));  // store never opened, nothing written
}

TEST(Campaign, CorruptedCacheFallsBackToSimulation) {
  const std::string cache = fresh_dir("campaign_corrupt");
  const std::vector<CampaignSweep> sweeps{quick_sweep("corrupt")};
  CampaignOptions opts;
  opts.cache_dir = cache;
  const auto cold = run_campaign(sweeps, opts);
  EXPECT_EQ(cold.stats.simulated, cold.stats.unique);

  // Truncate every stored line halfway: all entries become unreadable.
  std::size_t truncated = 0;
  for (const auto& entry : fs::directory_iterator(cache)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    std::vector<std::string> lines;
    {
      std::ifstream in(entry.path());
      for (std::string l; std::getline(in, l);) lines.push_back(l);
    }
    std::ofstream out(entry.path(), std::ios::trunc);
    for (const auto& l : lines) {
      out << l.substr(0, l.size() / 2) << "\n";
      ++truncated;
    }
  }
  ASSERT_GT(truncated, 0u);

  const auto rerun = run_campaign(sweeps, opts);
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.simulated, rerun.stats.unique);
  EXPECT_EQ(rerun.stats.store_skipped, rerun.stats.unique);
  // Re-simulation reproduces the cold numbers exactly (never stale junk).
  expect_identical_series(cold.sweeps[0].second, rerun.sweeps[0].second);

  // And the store healed: a third run is all hits again.
  const auto healed = run_campaign(sweeps, opts);
  EXPECT_EQ(healed.stats.cache_hits, healed.stats.unique);
  EXPECT_EQ(healed.stats.simulated, 0u);
}

TEST(Campaign, WritesArtifacts) {
  const std::string out_dir = fresh_dir("campaign_artifacts");
  std::vector<CampaignSweep> sweeps{quick_sweep("figX")};
  CampaignOptions opts;
  opts.artifact_dir = out_dir;
  const auto out = run_campaign(sweeps, opts);
  EXPECT_GT(out.stats.wall_s, 0.0);
  EXPECT_TRUE(fs::exists(out_dir + "/figX.csv"));
  ASSERT_TRUE(fs::exists(out_dir + "/manifest.json"));

  std::ifstream mf(out_dir + "/manifest.json");
  std::string manifest((std::istreambuf_iterator<char>(mf)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"result_schema\": " +
                          std::to_string(kResultSchemaVersion)),
            std::string::npos);
  EXPECT_NE(manifest.find("\"name\": \"figX\""), std::string::npos);
  EXPECT_NE(manifest.find("\"seeds\": ["), std::string::npos);
  EXPECT_NE(manifest.find("\"cache_hits\": 0"), std::string::npos);
  // The recorded seeds are the derived ones, not the base seed.
  EXPECT_NE(
      manifest.find(std::to_string(
          campaign_point_seed(quick_base(), "Reno", 6))),
      std::string::npos);
}

TEST(Campaign, PaperFigureCampaignShape) {
  const auto sweeps = paper_figure_campaign(Scenario::paper_default());
  ASSERT_EQ(sweeps.size(), 4u);
  EXPECT_EQ(sweeps[0].name, "fig02_cov");
  EXPECT_EQ(sweeps[0].configs.size(), 6u);   // includes UDP
  EXPECT_EQ(sweeps[1].configs.size(), 5u);   // no UDP
  EXPECT_EQ(sweeps[1].client_counts, sweeps[3].client_counts);

  // Figs 3/4/13 plan identical scenarios (same configs, counts, seeds),
  // so the campaign collapses them to one simulation each.
  auto point_key = [](const CampaignSweep& sw, std::size_t c, std::size_t p) {
    Scenario sc = sw.base;
    sc.num_clients = sw.client_counts[p];
    sw.configs[c].apply(sc);
    sc.seed = campaign_point_seed(sw.base, sw.configs[c].name,
                                  sw.client_counts[p]);
    return scenario_key(sc);
  };
  for (std::size_t c = 0; c < sweeps[1].configs.size(); ++c) {
    for (std::size_t p = 0; p < sweeps[1].client_counts.size(); ++p) {
      EXPECT_EQ(point_key(sweeps[1], c, p), point_key(sweeps[2], c, p));
      EXPECT_EQ(point_key(sweeps[1], c, p), point_key(sweeps[3], c, p));
    }
  }
}

}  // namespace
}  // namespace burst
