// Fleet simulator determinism and model sanity (DESIGN.md §13): same
// (config, seed) must replay to a byte-identical FleetReport and event
// trace on every run and at any host thread count, the registration storm
// must queue on the storage node's slots, and churned nodes must pay the
// §3.5 catch-up at rejoin. Runs under `ctest -L tsan` via
// SQUIRREL_EVENT_FILTER.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "sim/fleet/fleet.h"
#include "util/rng.h"

namespace squirrel::sim::fleet {
namespace {

FleetConfig SmallConfig() {
  FleetConfig config;
  config.nodes = 400;
  config.images = 16;
  config.seed = 7;
  config.trace = true;
  return config;
}

struct RunOutput {
  std::string json;
  std::string trace;
};

RunOutput RunOnce(const FleetConfig& config) {
  FleetScenario scenario(config);
  const FleetReport report = scenario.Run();
  return {report.ToJson(), scenario.loop().FormatTrace()};
}

TEST(Fleet, SameSeedByteIdenticalReportAndTrace) {
  const RunOutput a = RunOnce(SmallConfig());
  const RunOutput b = RunOnce(SmallConfig());
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
}

TEST(Fleet, ByteIdenticalAcrossHostThreads) {
  // Each scenario is confined to one thread; four concurrent runs of the
  // same config must all produce the reference bytes (the determinism
  // contract the tsan label guards).
  const RunOutput reference = RunOnce(SmallConfig());
  std::vector<RunOutput> results(4);
  {
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (RunOutput& slot : results) {
      threads.emplace_back([&slot] { slot = RunOnce(SmallConfig()); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const RunOutput& result : results) {
    EXPECT_EQ(result.json, reference.json);
    EXPECT_EQ(result.trace, reference.trace);
  }
}

TEST(Fleet, ReportCoversEveryRequestedPhase) {
  FleetConfig config = SmallConfig();
  const FleetReport report = FleetScenario(config).Run();
  ASSERT_EQ(report.phases.size(), 5u);
  EXPECT_EQ(report.phases[0].name, "register");
  EXPECT_EQ(report.phases[1].name, "deploy");
  EXPECT_EQ(report.phases[2].name, "autoscale");
  EXPECT_EQ(report.phases[3].name, "patch");
  EXPECT_EQ(report.phases[4].name, "churn");
  // Every node boots once in the deploy wave; latency percentiles are
  // ordered and positive.
  EXPECT_EQ(report.phases[1].boots, config.nodes);
  EXPECT_GT(report.phases[1].p50_seconds, 0.0);
  EXPECT_LE(report.phases[1].p50_seconds, report.phases[1].p99_seconds);
  EXPECT_LE(report.phases[1].p99_seconds, report.phases[1].p999_seconds);
  EXPECT_GT(report.phases[1].throughput_boots_per_second, 0.0);
  EXPECT_EQ(report.registration.registrations,
            static_cast<std::uint64_t>(config.images) +
                config.patch_registrations + 2);
}

TEST(Fleet, RegistrationStormQueuesOnSlots) {
  // One slot, every image submitted at t=0: completion latency must stack
  // queue wait on top of the ~20 s service time, and the tail must exceed
  // §3.2's single-registration minute — that is the storm axis.
  FleetConfig config = SmallConfig();
  config.run_deploy = config.run_autoscale = false;
  config.run_patch = config.run_churn = false;
  const FleetReport report = FleetScenario(config).Run();
  EXPECT_EQ(report.registration.registrations, config.images);
  EXPECT_GT(report.registration.completion_max_seconds,
            2.0 * report.registration.service_p50_seconds);
  EXPECT_FALSE(report.registration.all_under_minute);

  // Four slots drain the same storm faster.
  FleetConfig wide = config;
  wide.registration_slots = 4;
  const FleetReport wide_report = FleetScenario(wide).Run();
  EXPECT_LT(wide_report.registration.completion_max_seconds,
            report.registration.completion_max_seconds);
}

TEST(Fleet, ChurnedNodesPaySyncCatchUpAtRejoin) {
  FleetConfig config = SmallConfig();
  config.run_deploy = config.run_autoscale = config.run_patch = false;
  config.churn_fraction = 0.1;
  const FleetReport report = FleetScenario(config).Run();
  // Re-registrations land while churned nodes are offline, so every rejoin
  // catches up (§3.5) and its boot is not warm-local.
  EXPECT_GT(report.sync_catchups, 0u);
  EXPECT_GT(report.sync_bytes, 0.0);
  const PhaseStats& churn = report.phases.back();
  EXPECT_EQ(churn.name, "churn");
  EXPECT_GT(churn.remote_boots, 0u);
}

TEST(Fleet, ChurnCatchUpsGrowWithChurners) {
  // Every churner leaves before the re-registrations, so each one rejoins
  // behind and pays exactly one catch-up: the churn load grows with the
  // fleet instead of saturating at the churners that happen to leave early.
  for (const std::uint32_t nodes : {2000u, 8000u, 32000u}) {
    SCOPED_TRACE(nodes);
    FleetConfig config = SmallConfig();
    config.nodes = nodes;
    config.trace = false;
    config.run_deploy = config.run_autoscale = config.run_patch = false;
    const FleetReport report = FleetScenario(config).Run();
    const auto churners = static_cast<std::uint64_t>(
        config.churn_fraction * static_cast<double>(nodes));
    EXPECT_EQ(report.sync_catchups, churners);
  }
}

TEST(Fleet, ZipfSamplerMatchesTheoryAtMillionSamples) {
  // n=1e6 draws over 1000 ranks, s=0.9: empirical rank frequencies must
  // follow the Zipf pmf (top rank within 5% of theory, and monotone across
  // decades).
  constexpr std::size_t kRanks = 1000;
  constexpr std::size_t kDraws = 1'000'000;
  constexpr double kS = 0.9;
  util::ZipfSampler sampler(kRanks, kS);
  util::Rng rng(123);
  std::vector<std::uint64_t> counts(kRanks, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];

  double norm = 0.0;
  for (std::size_t r = 1; r <= kRanks; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r), kS);
  }
  const double expected_top = static_cast<double>(kDraws) / norm;
  EXPECT_NEAR(static_cast<double>(counts[0]), expected_top,
              0.05 * expected_top);
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
  EXPECT_GT(counts[99], counts[999]);
  // The skew concentrates: the hottest 10% of ranks get most of the draws.
  std::uint64_t top_decile = 0;
  for (std::size_t r = 0; r < kRanks / 10; ++r) top_decile += counts[r];
  EXPECT_GT(top_decile, kDraws / 2);
}

TEST(Fleet, CacheModeOffStaysByteIdenticalAndUnreported) {
  // kCacheOff is the default and must be inert: report and trace stay
  // byte-identical to a config that never mentions the cache model, and the
  // JSON carries no "cache" section (the controller-off bit-identity
  // contract, ISSUE 10).
  const RunOutput baseline = RunOnce(SmallConfig());
  FleetConfig off = SmallConfig();
  off.cache_mode = FleetConfig::kCacheOff;
  off.cache_miss_extra_seconds = 9.0;  // knobs are dead while mode is off
  off.cache_gain = 0.9;
  const RunOutput explicit_off = RunOnce(off);
  EXPECT_EQ(explicit_off.json, baseline.json);
  EXPECT_EQ(explicit_off.trace, baseline.trace);
  EXPECT_EQ(baseline.json.find("\"cache\""), std::string::npos);
}

TEST(Fleet, CacheAdaptiveChargesLessPenaltyThanStatic) {
  // The contention model: static even shares under a Zipf image mix leave
  // the hot ranks starved (share < demand => miss penalty); the adaptive
  // tick pulls shares toward the demand EMA, so its total charged penalty
  // must come in below static while booting the same fleet.
  FleetConfig static_config = SmallConfig();
  static_config.cache_mode = FleetConfig::kCacheStatic;
  FleetConfig adaptive_config = SmallConfig();
  adaptive_config.cache_mode = FleetConfig::kCacheAdaptive;

  FleetScenario static_run(static_config);
  const FleetReport static_report = static_run.Run();
  FleetScenario adaptive_run(adaptive_config);
  const FleetReport adaptive_report = adaptive_run.Run();

  EXPECT_EQ(static_report.cache.mode, FleetConfig::kCacheStatic);
  EXPECT_EQ(adaptive_report.cache.mode, FleetConfig::kCacheAdaptive);
  EXPECT_GT(static_report.cache.boots, 0u);
  EXPECT_GT(adaptive_report.cache.ticks, 0u);
  EXPECT_GT(static_report.cache.extra_seconds, 0.0);
  EXPECT_LT(adaptive_report.cache.extra_seconds,
            static_report.cache.extra_seconds);
  // Adaptive grants the hottest rank more than its even split.
  EXPECT_GT(adaptive_report.cache.hot_share, static_report.cache.hot_share);
  // The modeled penalty is visible in the report.
  EXPECT_NE(static_run.loop().FormatTrace(),
            adaptive_run.loop().FormatTrace());
  EXPECT_NE(static_report.ToJson().find("\"cache\""), std::string::npos);
}

}  // namespace
}  // namespace squirrel::sim::fleet
