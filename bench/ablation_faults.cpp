// Ablation: fault rates vs self-healing cost (BENCH_faults.json).
//
// Two sweeps over the fault-injection subsystem:
//
//   corruption  — flip bits in one compute node's ccVolume at a per-block
//                 rate, then scrub-repair against the storage node's healthy
//                 scVolume (§3's full replication is what makes every block
//                 repairable). Rounds of inject -> scrub-repair repeat, each
//                 with a fresh fault schedule, until the point has checked
//                 enough blocks to expect kExpectedFaults injections, so a
//                 low rate is measured rather than reported as zero. Reports
//                 errors found, blocks repaired, bytes re-fetched, and
//                 verifies the final scrub is clean. Exits nonzero when a
//                 nonzero rate injects nothing.
//   transfers   — fail/corrupt registration diff transfers at a per-attempt
//                 rate; the retry layer (capped exponential backoff, resume
//                 at record granularity) keeps delivering. Reports retries,
//                 retransmitted bytes, abandonments, and the registration
//                 latency tail the retries add.
//
// All faults are schedule-driven from one seed: rerunning the binary
// reproduces every number bit-identically.
#include <cmath>

#include "bench/ingest_common.h"
#include "core/squirrel.h"
#include "util/fault_injector.h"
#include "util/stats.h"
#include "util/table.h"

using namespace squirrel;
using namespace squirrel::bench;

namespace {

core::SquirrelConfig ClusterConfig() {
  core::SquirrelConfig config;
  config.volume = zvol::VolumeConfig{.block_size = 64 * 1024,
                                     .codec = compress::CodecId::kGzip6,
                                     .dedup = true,
                                     .fast_hash = true};
  return config;
}

sim::NetworkConfig GigabitNet() {
  sim::NetworkConfig net;
  net.bandwidth_bytes_per_ns = 0.125;  // 1 GbE
  return net;
}

/// Registers the whole catalog's caches into `cluster`.
void PopulateCluster(core::SquirrelCluster& cluster,
                     const vmi::Catalog& catalog,
                     core::TransferStats* totals,
                     util::RunningStats* reg_seconds) {
  std::uint64_t now = 0;
  for (const vmi::ImageSpec& spec : catalog.images()) {
    const vmi::VmImage image(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, image);
    const auto report =
        cluster.Register({spec.name, vmi::CacheImage(image, boot), core::SimClock::FromSeconds(now += 60)});
    if (totals != nullptr) {
      totals->attempts += report.transfers.attempts;
      totals->retries += report.transfers.retries;
      totals->abandoned += report.transfers.abandoned;
      totals->retransmitted_bytes += report.transfers.retransmitted_bytes;
      totals->backoff_seconds += report.transfers.backoff_seconds;
    }
    if (reg_seconds != nullptr) reg_seconds->Add(report.total_seconds);
  }
}

/// Injections each nonzero-rate point is sized to expect: it checks at
/// least kExpectedFaults / rate blocks, so the chance that it injects none
/// is about e^-kExpectedFaults (under 2%).
constexpr double kExpectedFaults = 4.0;

struct CorruptionRow {
  double rate = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t blocks_checked = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t errors_found = 0;
  std::uint64_t repaired = 0;
  std::uint64_t unrepairable = 0;
  std::uint64_t repaired_bytes = 0;
  std::uint64_t post_scrub_errors = 0;
};

CorruptionRow RunCorruptionSweep(const vmi::Catalog& catalog, double rate,
                                 std::uint64_t seed) {
  core::SquirrelCluster cluster(ClusterConfig(), /*compute_count=*/2,
                                GigabitNet());
  PopulateCluster(cluster, catalog, nullptr, nullptr);
  zvol::Volume& victim = cluster.compute_node(0).volume();

  CorruptionRow row;
  row.rate = rate;
  const double target =
      rate > 0 ? std::ceil(kExpectedFaults / rate) : 0.0;
  // One round checks every block once; a rate of 0 runs a single round.
  do {
    // Each round draws its own schedule: the injector is keyed by (seed,
    // digest), so reusing one seed would hit the same blocks every round.
    util::FaultInjector faults(seed + row.rounds,
                               {.block_corrupt_rate = rate});
    row.corrupted += victim.InjectFaults(faults);
    zvol::RepairSession session({{0, &cluster.storage_volume().block_store()}});
    const zvol::Volume::RepairReport repair = victim.ScrubRepair(session);
    ++row.rounds;
    row.blocks_checked += repair.blocks_checked;
    row.errors_found += repair.errors_found;
    row.repaired += repair.repaired;
    row.unrepairable += repair.unrepairable;
    row.repaired_bytes += repair.repaired_bytes;
    if (repair.blocks_checked == 0) break;  // nothing to corrupt
  } while (static_cast<double>(row.blocks_checked) < target);
  row.post_scrub_errors = victim.Scrub().errors;
  return row;
}

struct TransferRow {
  double rate = 0.0;
  core::TransferStats totals;
  double mean_reg_seconds = 0.0;
  double max_reg_seconds = 0.0;
};

TransferRow RunTransferSweep(const vmi::Catalog& catalog, double rate,
                             std::uint64_t seed) {
  util::FaultInjector faults(seed, {.transfer_fail_rate = rate,
                                    .transfer_corrupt_rate = rate / 2,
                                    .transfer_delay_seconds = 0.05});
  TransferRow row;
  row.rate = rate;
  util::RunningStats seconds;
  core::SquirrelCluster cluster(ClusterConfig(), /*compute_count=*/8,
                                GigabitNet());
  if (rate > 0) cluster.SetFaultInjector(&faults);
  PopulateCluster(cluster, catalog, &row.totals, &seconds);
  row.mean_reg_seconds = seconds.mean();
  row.max_reg_seconds = seconds.max();
  return row;
}

void WriteJson(const std::vector<CorruptionRow>& corruption,
               const std::vector<TransferRow>& transfers,
               const Options& options) {
  FILE* out = std::fopen("BENCH_faults.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_faults: cannot write BENCH_faults.json\n");
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"faults\",\n  \"images\": %u,\n"
               "  \"seed\": %llu,\n  \"corruption\": [\n",
               options.images,
               static_cast<unsigned long long>(options.seed));
  for (std::size_t i = 0; i < corruption.size(); ++i) {
    const CorruptionRow& r = corruption[i];
    std::fprintf(
        out,
        "    {\"block_corrupt_rate\": %g, \"rounds\": %llu, "
        "\"blocks_checked\": %llu, "
        "\"blocks_corrupted\": %llu, \"errors_found\": %llu, "
        "\"repaired\": %llu, \"unrepairable\": %llu, "
        "\"repaired_bytes\": %llu, \"post_scrub_errors\": %llu}%s\n",
        r.rate, static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(r.blocks_checked),
        static_cast<unsigned long long>(r.corrupted),
        static_cast<unsigned long long>(r.errors_found),
        static_cast<unsigned long long>(r.repaired),
        static_cast<unsigned long long>(r.unrepairable),
        static_cast<unsigned long long>(r.repaired_bytes),
        static_cast<unsigned long long>(r.post_scrub_errors),
        i + 1 < corruption.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"transfers\": [\n");
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const TransferRow& r = transfers[i];
    std::fprintf(
        out,
        "    {\"transfer_fail_rate\": %g, \"attempts\": %llu, "
        "\"retries\": %llu, \"abandoned\": %llu, "
        "\"retransmitted_bytes\": %llu, \"backoff_seconds\": %.3f, "
        "\"mean_registration_seconds\": %.4f, "
        "\"max_registration_seconds\": %.4f}%s\n",
        r.rate, static_cast<unsigned long long>(r.totals.attempts),
        static_cast<unsigned long long>(r.totals.retries),
        static_cast<unsigned long long>(r.totals.abandoned),
        static_cast<unsigned long long>(r.totals.retransmitted_bytes),
        r.totals.backoff_seconds, r.mean_reg_seconds, r.max_reg_seconds,
        i + 1 < transfers.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  if (options.images == 607) options.images = 24;
  PrintHeader("ablation_faults",
              "Ablation: fault rate vs self-healing and retry cost",
              options);
  const vmi::Catalog catalog =
      vmi::Catalog::AzureCommunity(MakeCatalogConfig(options));

  // A point costs about kExpectedFaults / rate block checks (one decode and
  // hash each), so the smoke run leaves out 1e-4, which alone needs 40,000.
  std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
  if (options.fast) rates.erase(rates.begin() + 1);
  std::vector<CorruptionRow> corruption;
  for (const double rate : rates) {
    corruption.push_back(RunCorruptionSweep(catalog, rate, options.seed));
  }
  util::Table scrub_table({"corrupt rate", "rounds", "blocks checked",
                           "injected", "found",
                           "repaired", "unrepairable", "re-fetched",
                           "post-scrub err"});
  for (const CorruptionRow& r : corruption) {
    scrub_table.AddRow(
        {util::Table::Num(r.rate, 4), std::to_string(r.rounds),
         std::to_string(r.blocks_checked),
         std::to_string(r.corrupted), std::to_string(r.errors_found),
         std::to_string(r.repaired), std::to_string(r.unrepairable),
         util::FormatBytes(static_cast<double>(r.repaired_bytes)),
         std::to_string(r.post_scrub_errors)});
  }
  std::printf("%s\n", scrub_table.Render().c_str());

  std::vector<TransferRow> transfers;
  for (const double rate : {0.0, 0.05, 0.15, 0.3}) {
    transfers.push_back(RunTransferSweep(catalog, rate, options.seed));
  }
  util::Table retry_table({"fail rate", "attempts", "retries", "abandoned",
                           "re-sent", "backoff(s)", "mean reg(s)",
                           "max reg(s)"});
  for (const TransferRow& r : transfers) {
    retry_table.AddRow(
        {util::Table::Num(r.rate, 2), std::to_string(r.totals.attempts),
         std::to_string(r.totals.retries), std::to_string(r.totals.abandoned),
         util::FormatBytes(static_cast<double>(r.totals.retransmitted_bytes)),
         util::Table::Num(r.totals.backoff_seconds, 2),
         util::Table::Num(r.mean_reg_seconds, 3),
         util::Table::Num(r.max_reg_seconds, 3)});
  }
  std::printf("%s", retry_table.Render().c_str());

  std::printf(
      "\nreading: every corrupted block a scrub finds is restored from the\n"
      "storage node's replica (digest-verified; the follow-up scrub is\n"
      "clean), and transfer faults cost retries and backoff latency, not\n"
      "lost cache updates — replication keeps the robustness story of §3\n"
      "at a bounded network premium.\n");

  WriteJson(corruption, transfers, options);
  std::printf("\nwrote BENCH_faults.json\n");
  // A nonzero rate that injected nothing measured nothing.
  for (const CorruptionRow& r : corruption) {
    if (r.rate > 0 && r.corrupted == 0) {
      std::fprintf(stderr,
                   "ablation_faults: rate %g injected no corruption in %llu "
                   "checked blocks\n",
                   r.rate, static_cast<unsigned long long>(r.blocks_checked));
      return 1;
    }
  }
  return 0;
}
