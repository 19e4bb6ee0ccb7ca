// The three workloads. An untraced run has five phases:
//
//   set-up   inputs from the seed plus the cluster state the run starts
//            from (timed: setup_s);
//   script   a fixed, seed-determined sequence of operations; every
//            deterministic metric is computed over it;
//   set-ups  kSetUps - 1 more set-ups, each from scratch and checked to
//            reach the same scVolume state. On boot and degraded, after
//            each of their registrations a slice of measured boots runs on
//            the first cluster, so the measurement spreads over the run's
//            wall time rather than one stretch of it (the host's speed
//            drifts over seconds); slice time is kept out of setup_s;
//   loop     the workload's main operation repeated in a closed loop (one
//            client) until `--seconds` of script, slices and loop have
//            been measured (the register loop also continues the boot
//            pass between registrations);
//   checks   invariants on every store at the end.
//
// While measuring, a volume restore sample is taken every kRestoreInterval.
// A trace run executes set-up and script kTraceExecutions times instead:
// with pool threads 1, with 2, and with 2 while recording spans. Their
// deterministic values must match exactly, and the difference between the
// last two wall times is the tracing overhead.
#include "bench.h"
#include "core/squirrel.h"
#include "replay.h"

namespace sqbench {
namespace {

constexpr std::uint64_t kSecondsPerRegistration = 6 * 3600;  // 4 per day

core::SquirrelConfig PaperConfig(std::size_t threads) {
  core::SquirrelConfig config;
  config.volume.block_size = 64 * 1024;
  config.volume.codec = compress::CodecId::kGzip6;
  config.volume.dedup = true;
  config.volume.fast_hash = false;  // SHA-256 digests
  config.volume.ingest.threads = threads;
  config.volume.read.threads = threads;
  return config;
}

/// Wall-clock samples of one run, over every phase.
struct Wall {
  std::vector<double> register_ms;
  double register_bytes = 0.0;
  std::vector<double> boot_ms;
  std::vector<double> restore_mb_s;
  std::vector<double> setup_s;
};

/// Deterministic accounting of one script execution.
struct Script {
  std::vector<double> register_sim_s;
  std::vector<double> register_wall_ms;
  std::uint64_t registrations = 0;
  std::uint64_t cc_receivers = 0;  // whole-replica receivers, summed
  std::uint64_t wire_bytes = 0;    // compute-node bytes in, register + sync
  std::uint64_t full_resyncs = 0;
  std::uint64_t sync_wire_bytes = 0;
  std::vector<double> sync_wall_ms;

  std::vector<double> boot_sim_s;
  std::vector<BootRecord> boots;
  std::uint64_t boot_net_bytes = 0;
  double io_seconds = 0.0;
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  std::uint64_t cache_bytes_read = 0;
  std::uint64_t base_bytes_read = 0;
  std::uint64_t reconstructed = 0;
  std::uint64_t parity_reads = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t shard_remote_bytes = 0;
  std::uint64_t blocks_requested = 0;
  std::uint64_t arc_hits = 0;
  std::uint64_t decompressed_bytes = 0;

  zvol::VolumeStats sc_stats;
  double wall_ms = 0.0;

  std::map<std::string, double> Deterministic(const Inputs& in) const;
};

double PerBoot(double total, std::size_t boots) {
  return boots == 0 ? 0.0 : total / static_cast<double>(boots);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::map<std::string, double> Script::Deterministic(const Inputs& in) const {
  const std::size_t n = boots.size();
  std::map<std::string, double> d;
  d["boot_sim_s_p50"] = Percentile(boot_sim_s, 50);
  d["boot_sim_s_p95"] = Percentile(boot_sim_s, 95);
  d["register_sim_s_p50"] = Percentile(register_sim_s, 50);
  d["disk_per_raw"] = Ratio(static_cast<double>(sc_stats.disk_used_bytes),
                            static_cast<double>(in.raw_cache_bytes));
  d["ddt_core_kib_per_image"] =
      static_cast<double>(sc_stats.ddt_core_bytes) / 1024.0 /
      static_cast<double>(in.images.size());
  d["wire_kib_per_image"] =
      Ratio(static_cast<double>(wire_bytes) / 1024.0,
            static_cast<double>(registrations));
  d["store.unique_blocks"] = static_cast<double>(sc_stats.unique_blocks);
  d["store.ddt_core_bytes"] = static_cast<double>(sc_stats.ddt_core_bytes);
  d["store.arc_hit_ratio"] =
      Ratio(static_cast<double>(arc_hits), static_cast<double>(blocks_requested));
  d["store.decompressed_kib_per_boot"] =
      PerBoot(static_cast<double>(decompressed_bytes) / 1024.0, n);
  d["core.full_resyncs"] = static_cast<double>(full_resyncs);
  d["core.sync_wire_kib"] = static_cast<double>(sync_wire_bytes) / 1024.0;
  d["core.boot_net_kib_per_boot"] =
      PerBoot(static_cast<double>(boot_net_bytes) / 1024.0, n);
  d["sim.io_s_per_boot"] = PerBoot(io_seconds, n);
  d["sim.page_cache_hit_ratio"] =
      Ratio(static_cast<double>(page_cache_hits),
            static_cast<double>(page_cache_hits + page_cache_misses));
  d["cow.cache_read_share"] =
      Ratio(static_cast<double>(cache_bytes_read),
            static_cast<double>(cache_bytes_read + base_bytes_read));
  d["placement.reconstructed_per_boot"] =
      PerBoot(static_cast<double>(reconstructed), n);
  d["placement.parity_reads_per_boot"] =
      PerBoot(static_cast<double>(parity_reads), n);
  d["placement.fallbacks"] = static_cast<double>(fallbacks);
  d["placement.shard_remote_kib_per_boot"] =
      PerBoot(static_cast<double>(shard_remote_bytes) / 1024.0, n);
  return d;
}

enum class Kind { kRegister, kBoot, kDegraded };

class Run {
 public:
  Run(const Options& options, Tracer& tracer, Checker& checker)
      : options_(options), traced_(tracer), checker_(checker) {
    if (options.workload == "register") {
      kind_ = Kind::kRegister;
    } else if (options.workload == "boot") {
      kind_ = Kind::kBoot;
    } else {
      kind_ = Kind::kDegraded;
    }
  }

  RunResult Execute();

 private:
  std::uint32_t NodeCount() const {
    switch (kind_) {
      case Kind::kRegister: return 8;
      case Kind::kBoot: return 2;
      case Kind::kDegraded: return 12;
    }
    return 0;
  }

  /// Inputs and the cluster state a script starts from. The cluster is
  /// destroyed first.
  struct Fixture {
    std::unique_ptr<Inputs> in;
    std::unique_ptr<core::SquirrelCluster> cluster;
  };

  std::unique_ptr<core::SquirrelCluster> NewCluster(std::size_t threads) const;
  /// Builds inputs and the cluster state the script starts from.
  Fixture SetUp(std::size_t threads, Script* script);
  /// Registers the whole catalog of `in`. With `churn`, two nodes go
  /// offline for a stretch and catch up through SyncNode, and GC runs daily.
  void RegisterStream(core::SquirrelCluster& cluster, const Inputs& in,
                      bool churn, Script* script);
  void Sync(core::SquirrelCluster& cluster, std::uint32_t node,
            core::SimClock now, Script* script);
  /// Boots the k-th image of the run for k in [first, last) or until
  /// `deadline`.
  std::uint32_t Boots(core::SquirrelCluster& cluster, std::uint32_t first,
                      std::uint32_t last, Clock::time_point deadline,
                      Script* script);
  /// Restore samples: the volume is serialized once after the script, and
  /// deserialized right away and every kRestoreInterval while measuring, so
  /// the samples spread over the run.
  void PrepareRestore(const zvol::Volume& volume);
  void RestoreSample();
  void MaybeRestore();
  void CheckRestored();
  /// Runs after each registration: a slice of measured boots during the
  /// later set-ups, else a restore sample when one is due (and, in the
  /// register loop, the next boots of the pass).
  void AfterRegistration();
  void BootSlice();
  void CheckSameSetUp(core::SquirrelCluster& cluster,
                      const zvol::VolumeStats& want);
  void RunScript(core::SquirrelCluster& cluster, Script* script);
  void CheckReadBack(const zvol::Volume& volume, const ImageInput& image,
                     const std::string& what);
  void FinalChecks(core::SquirrelCluster& cluster);

  const Options& options_;
  Tracer& traced_;
  Tracer untraced_{false};
  Tracer* tracer_ = &untraced_;  // the traced execution swaps in traced_
  Checker& checker_;
  Kind kind_ = Kind::kRegister;
  std::unique_ptr<Inputs> in_;
  std::unique_ptr<core::SquirrelCluster> cluster_;
  Wall wall_;
  bool measuring_ = false;
  double target_ms_ = 0.0;    // --seconds
  double measured_ms_ = 0.0;  // script, slices and loop
  std::size_t slices_left_ = 0;
  double sliced_ms_ = 0.0;    // total slice time, kept out of setup_s
  std::uint32_t next_boot_ = 0;  // sequence position of the next loop boot
  util::Bytes restore_image_;
  std::vector<std::string> restore_files_;
  std::unique_ptr<zvol::Volume> restored_;
  Clock::time_point last_restore_;
};

std::unique_ptr<core::SquirrelCluster> Run::NewCluster(
    std::size_t threads) const {
  core::SquirrelConfig config = PaperConfig(threads);
  if (kind_ == Kind::kDegraded) {
    config.placement.policy = placement::PolicyKind::kStriped;
    config.placement.data_shards = 4;
    config.placement.parity_shards = 2;
    config.placement.storage_set_size = 6;
  }
  return std::make_unique<core::SquirrelCluster>(config, NodeCount());
}

Run::Fixture Run::SetUp(std::size_t threads, Script* script) {
  ScopedSpan span(*tracer_, "bench.setup");
  const Clock::time_point start = Clock::now();
  const double sliced_before = sliced_ms_;
  Fixture f;
  f.in = std::make_unique<Inputs>(options_.seed);
  f.cluster = NewCluster(threads);
  core::SquirrelCluster& cluster = *f.cluster;
  if (kind_ != Kind::kRegister) {
    RegisterStream(cluster, *f.in, /*churn=*/false, script);
  }
  if (kind_ == Kind::kBoot) {
    // ARC of each ccVolume: 1/8 of the catalog's unique raw boot bytes.
    const std::uint64_t unique =
        cluster.storage_volume().block_store().stats().logical_unique_bytes;
    for (std::uint32_t n = 0; n < cluster.compute_count(); ++n) {
      cluster.compute_node(n).volume().ResizeReadCache(unique / 8);
    }
  }
  if (kind_ == Kind::kDegraded) {
    // m = 2 members of each storage set go offline.
    const placement::StorageSetLayout& layout = *cluster.layout();
    for (std::uint32_t set = 0; set < layout.set_count(); ++set) {
      const std::vector<std::uint32_t> members = layout.SetMembers(set);
      for (std::size_t i = members.size() - 2; i < members.size(); ++i) {
        cluster.compute_node(members[i] - 1).set_online(false);
      }
    }
  }
  wall_.setup_s.push_back(
      (MsSince(start) - (sliced_ms_ - sliced_before)) / 1000.0);
  return f;
}

void Run::CheckSameSetUp(core::SquirrelCluster& cluster,
                         const zvol::VolumeStats& want) {
  ScopedSpan span(*tracer_, "bench.check");
  const zvol::VolumeStats got = cluster.storage_volume().Stats();
  checker_.Check(got.file_count == want.file_count &&
                     got.snapshot_count == want.snapshot_count &&
                     got.logical_file_bytes == want.logical_file_bytes &&
                     got.unique_blocks == want.unique_blocks &&
                     got.ddt_core_bytes == want.ddt_core_bytes &&
                     got.disk_used_bytes == want.disk_used_bytes,
                 "a repeated set-up left another scVolume state");
}

void Run::CheckReadBack(const zvol::Volume& volume, const ImageInput& image,
                        const std::string& what) {
  ScopedSpan span(*tracer_, "bench.check");
  const std::string file = core::SquirrelCluster::CacheFileName(image.id);
  bool ok = volume.HasFile(file);
  checker_.Op("read back " + image.id, [&] {
    const MaterializedCache& cache = *image.cache;
    for (std::size_t r = 0; ok && r < cache.ranges().size(); ++r) {
      const vmi::Range& range = cache.ranges()[r];
      ok = volume.ReadRange(file, range.offset, range.length) ==
           cache.range_bytes(r);
    }
  });
  checker_.Check(ok, what + ": " + image.id + " does not read back equal");
}

void Run::Sync(core::SquirrelCluster& cluster, std::uint32_t node,
               core::SimClock now, Script* script) {
  core::SyncReport report;
  const Clock::time_point start = Clock::now();
  bool ok;
  {
    ScopedSpan span(*tracer_, "core.SyncNode");
    ok = checker_.Op("SyncNode",
                     [&] { report = cluster.SyncNode(node, now); });
  }
  const double ms = MsSince(start);
  if (!ok) return;
  if (script != nullptr) {
    script->full_resyncs += report.full_resync ? 1 : 0;
    script->sync_wire_bytes += report.wire_bytes;
    script->sync_wall_ms.push_back(ms);
  }
  ScopedSpan span(*tracer_, "bench.check");
  const zvol::Snapshot* mine = cluster.compute_node(node).volume().LatestSnapshot();
  const zvol::Snapshot* theirs = cluster.storage_volume().LatestSnapshot();
  checker_.Check(mine != nullptr && theirs != nullptr &&
                     mine->id == theirs->id && mine->name == theirs->name &&
                     mine->files == theirs->files,
                 "catch-up of node " + std::to_string(node) +
                     " does not match the scVolume's latest snapshot");
}

void Run::RegisterStream(core::SquirrelCluster& cluster, const Inputs& in,
                         bool churn, Script* script) {
  // Churn: node A is offline for 3 days (incremental catch-up), node B for
  // 8 days, past the 7-day retention window (full resync).
  const std::uint32_t node_a = cluster.compute_count() - 2;
  const std::uint32_t node_b = cluster.compute_count() - 1;
  const std::uint64_t net_before =
      cluster.network().TotalBytesIn(1, cluster.compute_count());
  const std::size_t count = in.images.size();
  for (std::size_t i = 0; i < count; ++i) {
    const core::SimClock now =
        core::SimClock::FromSeconds((i + 1) * kSecondsPerRegistration);
    if (churn) {
      if (i == 8) cluster.compute_node(node_a).set_online(false);
      if (i == 20) {
        cluster.compute_node(node_a).set_online(true);
        Sync(cluster, node_a, now, script);
        cluster.compute_node(node_b).set_online(false);
      }
      if (i == 52) {
        cluster.compute_node(node_b).set_online(true);
        Sync(cluster, node_b, now, script);
      }
    }
    const ImageInput& image = in.images[i];
    core::RegistrationReport report;
    const Clock::time_point start = Clock::now();
    bool ok;
    {
      ScopedSpan span(*tracer_, "core.Register");
      ok = checker_.Op("Register " + image.id, [&] {
        report = cluster.Register({image.id, *image.cache, now});
      });
    }
    const double ms = MsSince(start);
    wall_.register_ms.push_back(ms);
    AfterRegistration();
    if (!ok) continue;
    wall_.register_bytes += static_cast<double>(report.cache_logical_bytes);
    checker_.Check(report.cache_logical_bytes > 0 &&
                       report.cache_logical_bytes <= image.cache->raw_bytes(),
                   "registered cache size of " + image.id);
    if (script != nullptr) {
      ++script->registrations;
      script->register_sim_s.push_back(report.total_seconds);
      script->register_wall_ms.push_back(ms);
      if (!cluster.NodeStriped(0)) script->cc_receivers += report.receivers;
    }
    // Read the new cache back from one online replica (the scVolume under
    // striped placement, where compute nodes hold shards only).
    if (cluster.NodeStriped(0)) {
      CheckReadBack(cluster.storage_volume(), image, "scVolume");
    } else {
      std::uint32_t node = static_cast<std::uint32_t>(i % cluster.compute_count());
      while (!cluster.compute_node(node).online()) {
        node = (node + 1) % cluster.compute_count();
      }
      CheckReadBack(cluster.compute_node(node).volume(), image,
                    "ccVolume " + std::to_string(node));
    }
    if (churn && (i + 1) % 4 == 0) {
      ScopedSpan span(*tracer_, "core.RunGc");
      checker_.Op("RunGc", [&] { cluster.RunGc(now); });
    }
  }
  if (script != nullptr) {
    script->wire_bytes +=
        cluster.network().TotalBytesIn(1, cluster.compute_count()) -
        net_before;
    script->sc_stats = cluster.storage_volume().Stats();
  }
}

std::uint32_t Run::Boots(core::SquirrelCluster& cluster, std::uint32_t first,
                         std::uint32_t last, Clock::time_point deadline,
                         Script* script) {
  std::vector<std::uint32_t> nodes;
  for (std::uint32_t n = 0; n < cluster.compute_count(); ++n) {
    if (cluster.compute_node(n).online()) nodes.push_back(n);
  }
  const bool striped = cluster.NodeStriped(nodes.front());
  std::uint32_t k = first;
  for (; k < last && Clock::now() < deadline; ++k) {
    // Without an ARC (the register run's boot pass, degraded boots from
    // shards) popularity changes nothing but the sample mix, so these runs
    // take every image in turn, on a node that moves on by one each pass:
    // their numbers describe the whole catalog rather than a popular few.
    const bool in_turn = kind_ != Kind::kBoot;
    const std::uint32_t count = static_cast<std::uint32_t>(in_->images.size());
    const std::uint32_t index =
        in_turn ? k % count
                : in_->boot_sequence[k % in_->boot_sequence.size()];
    const std::uint32_t node =
        nodes[(in_turn ? k + k / count : k) % nodes.size()];
    const ImageInput& image = in_->images[index];
    const core::BootRequest request = BootRequestFor(*in_, image);
    store::ReadStats before{};
    if (!striped) {
      before = cluster.compute_node(node).volume().block_store().read_stats();
    }
    sim::IoContext io(in_->io_config);
    core::BootReport report;
    const Clock::time_point start = Clock::now();
    bool ok;
    {
      ScopedSpan span(*tracer_, "core.Boot");
      ok = checker_.Op("Boot " + image.id, [&] {
        report = cluster.Boot(node, request, io);
      });
    }
    const double ms = MsSince(start);
    wall_.boot_ms.push_back(ms);
    MaybeRestore();
    if (!ok) continue;
    {
      ScopedSpan span(*tracer_, "bench.check");
      checker_.Check(report.result.bytes_read == image.read_bytes,
                     "boot of " + image.id + " read " +
                         std::to_string(report.result.bytes_read) + " bytes");
      if (striped) {
        checker_.Check(report.reconstruct_fallbacks == 0 &&
                           report.repair_reads == 0,
                       "degraded boot of " + image.id +
                           " fell back to the storage node");
      } else {
        checker_.Check(report.network_bytes == 0,
                       "warm boot of " + image.id + " pulled " +
                           std::to_string(report.network_bytes) +
                           " network bytes");
      }
    }
    if (script == nullptr) continue;
    BootRecord record{node, index};
    script->boots.push_back(record);
    script->boot_sim_s.push_back(report.result.seconds);
    script->boot_net_bytes += report.network_bytes;
    script->io_seconds += report.result.io_seconds;
    script->page_cache_hits += report.result.page_cache_hits;
    script->page_cache_misses += report.result.page_cache_misses;
    script->cache_bytes_read += report.result.cache_bytes_read;
    script->base_bytes_read += report.result.base_bytes_read;
    script->reconstructed += report.reconstructed_blocks;
    script->parity_reads += report.parity_reads;
    script->fallbacks += report.reconstruct_fallbacks;
    script->shard_remote_bytes += report.shard_remote_bytes;
    if (!striped) {
      const store::ReadStats after =
          cluster.compute_node(node).volume().block_store().read_stats();
      script->blocks_requested += after.blocks_requested - before.blocks_requested;
      script->arc_hits += after.cache_hits - before.cache_hits;
      script->decompressed_bytes +=
          after.decompressed_bytes - before.decompressed_bytes;
    }
  }
  return k - first;
}

void Run::PrepareRestore(const zvol::Volume& volume) {
  ScopedSpan span(*tracer_, "zvol.Serialize");
  restore_files_ = volume.FileNames();
  checker_.Op("Serialize", [&] { restore_image_ = volume.Serialize(); });
}

void Run::RestoreSample() {
  restored_.reset();
  last_restore_ = Clock::now();
  bool ok;
  {
    ScopedSpan span(*tracer_, "zvol.Deserialize");
    ok = checker_.Op("Deserialize", [&] {
      restored_ = zvol::Volume::Deserialize(restore_image_);
    });
  }
  const double ms = MsSince(last_restore_);
  if (ok && ms > 0.0) {
    wall_.restore_mb_s.push_back(
        static_cast<double>(restore_image_.size()) / 1e6 / (ms / 1000.0));
  }
}

void Run::MaybeRestore() {
  if (measuring_ && Clock::now() - last_restore_ >= kRestoreInterval) {
    RestoreSample();
  }
}

void Run::AfterRegistration() {
  if (slices_left_ > 0) {
    BootSlice();
    return;
  }
  MaybeRestore();
  if (measuring_ && kind_ == Kind::kRegister) {
    // The register loop continues the boot pass on the script's cluster
    // between registrations, so boot samples come from the whole run.
    next_boot_ += Boots(*cluster_, next_boot_,
                        next_boot_ + kRegisterLoopBoots,
                        Clock::time_point::max(), nullptr);
  }
}

void Run::BootSlice() {
  // Each slice gets an equal share of the measurement time still to go, so
  // a slice that overran (a restore sample) shortens the later ones.
  const double budget_ms = std::max(0.0, target_ms_ - measured_ms_) /
                           static_cast<double>(slices_left_--);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(budget_ms));
  measuring_ = true;
  MaybeRestore();
  next_boot_ += Boots(*cluster_, next_boot_, UINT32_MAX, end, nullptr);
  measuring_ = false;
  const double ms = MsSince(start);
  sliced_ms_ += ms;
  measured_ms_ += ms;
}

void Run::CheckRestored() {
  if (restored_ == nullptr) return;
  checker_.Check(restored_->FileNames() == restore_files_,
                 "restored volume lists other files");
  for (const ImageInput& image : in_->images) {
    CheckReadBack(*restored_, image, "restored volume");
  }
}

void Run::RunScript(core::SquirrelCluster& cluster, Script* script) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point never = Clock::time_point::max();
  if (kind_ == Kind::kRegister) {
    RegisterStream(cluster, *in_, /*churn=*/true, script);
    Boots(cluster, 0, kRegisterBootPass, never, script);
  } else {
    // The registration stream ran during set-up (see SetUp).
    Boots(cluster, 0, kScriptBoots, never, script);
  }
  script->wall_ms = MsSince(start);
}

void Run::FinalChecks(core::SquirrelCluster& c) {
  ScopedSpan span(*tracer_, "bench.check");
  const store::InvariantReport sc =
      c.storage_volume().block_store().CheckInvariants();
  checker_.Check(sc.ok, "scVolume store invariants: " + sc.detail);
  for (std::uint32_t n = 0; n < c.compute_count(); ++n) {
    const store::InvariantReport r =
        c.compute_node(n).volume().block_store().CheckInvariants();
    checker_.Check(r.ok, "ccVolume " + std::to_string(n) +
                             " store invariants: " + r.detail);
  }
}

RunResult Run::Execute() {
  // Trace runs execute set-up and script with pool threads 1, 2 and 2 and
  // check that the deterministic values agree across thread counts and
  // executions; untraced runs execute them once.
  const int executions = options_.trace ? kTraceExecutions : 1;
  const std::size_t threads[kTraceExecutions] = {1, kPoolThreads,
                                                 kPoolThreads};
  Script scripts[kTraceExecutions];
  int root = -1;
  Clock::time_point script_start;
  zvol::VolumeStats set_up_state;
  for (int s = 0; s < executions; ++s) {
    const bool last = s + 1 == executions;
    if (last && options_.trace) tracer_ = &traced_;
    cluster_.reset();
    in_.reset();
    Fixture f = SetUp(options_.trace ? threads[s] : kPoolThreads,
                      kind_ == Kind::kRegister ? nullptr : &scripts[s]);
    in_ = std::move(f.in);
    cluster_ = std::move(f.cluster);
    next_boot_ = kind_ == Kind::kRegister ? kRegisterBootPass : kScriptBoots;
    set_up_state = cluster_->storage_volume().Stats();
    if (last) {
      root = tracer_->Begin("bench.workload");
      script_start = Clock::now();
    }
    RunScript(*cluster_, &scripts[s]);
  }
  Script& script = scripts[executions - 1];

  measuring_ = true;
  PrepareRestore(kind_ == Kind::kDegraded ? cluster_->storage_volume()
                                          : cluster_->compute_node(0).volume());
  RestoreSample();
  measuring_ = false;
  measured_ms_ = MsSince(script_start);
  target_ms_ = options_.seconds * 1000.0;

  if (!options_.trace) {
    // The remaining set-ups, with a slice of measured boots on this cluster
    // after each of their registrations (none on the register run, whose
    // set-up registers nothing).
    if (kind_ != Kind::kRegister) {
      slices_left_ = (kSetUps - 1) * in_->images.size();
    }
    for (int s = 1; s < kSetUps; ++s) {
      Fixture other = SetUp(kPoolThreads, nullptr);
      CheckSameSetUp(*other.cluster, set_up_state);
    }
  }

  // The closed loop, until --seconds have been measured.
  measuring_ = true;
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           std::max(0.0, target_ms_ - measured_ms_)));
  if (kind_ == Kind::kRegister) {
    // Whole registration streams on fresh clusters, so every run measures
    // the same mix of early (mostly new) and late (mostly deduplicated)
    // registrations; at least one, for the sample count.
    do {
      std::unique_ptr<core::SquirrelCluster> cluster = NewCluster(kPoolThreads);
      RegisterStream(*cluster, *in_, /*churn=*/true, nullptr);
      FinalChecks(*cluster);
    } while (Clock::now() < deadline);
  } else {
    Boots(*cluster_, next_boot_, UINT32_MAX, deadline, nullptr);
  }
  measuring_ = false;
  while (wall_.restore_mb_s.size() < kMinRestoreSamples &&
         !restore_image_.empty()) {
    RestoreSample();
  }
  const double loop_ms = MsSince(script_start);
  tracer_->End(root);
  CheckRestored();
  FinalChecks(*cluster_);
  if (kind_ == Kind::kDegraded) {
    checker_.Check(script.reconstructed > 0,
                   "degraded boots rebuilt no block through parity");
  }

  RunResult result;
  result.deterministic = script.Deterministic(*in_);
  if (!options_.trace) {
    result.samples = {
        {"register_ms", wall_.register_ms},
        {"register_bytes", {wall_.register_bytes}},
        {"boot_ms", wall_.boot_ms},
        {"restore_mb_s", wall_.restore_mb_s},
        {"setup_s", wall_.setup_s},
        {"boot_sim_s", script.boot_sim_s},
        {"register_sim_s", script.register_sim_s},
    };
    for (const char* name :
         {"disk_per_raw", "ddt_core_kib_per_image", "wire_kib_per_image"}) {
      result.scalars[name] = result.deterministic.at(name);
    }
    return result;
  }

  // Determinism across pool thread counts and executions.
  for (int s = 0; s + 1 < kTraceExecutions; ++s) {
    const std::map<std::string, double> other = scripts[s].Deterministic(*in_);
    for (const auto& [name, value] : result.deterministic) {
      checker_.Check(other.at(name) == value,
                     "deterministic value " + name + " differs between " +
                         "executions (" + std::to_string(other.at(name)) +
                         " vs " + std::to_string(value) + ")");
    }
  }

  ReplayInputs replay{*in_, *cluster_, script.boots};
  replay.register_wall_ms = Mean(script.register_wall_ms);
  replay.cc_receivers_per_registration =
      Ratio(static_cast<double>(script.cc_receivers),
            static_cast<double>(script.registrations));
  const int replay_root = tracer_->Begin("bench.replay");
  Replay(replay, *tracer_, checker_, &result.per_layer, &result.notes);
  tracer_->End(replay_root);

  for (const auto& [name, value] : result.deterministic) {
    if (name.find('.') == std::string::npos) continue;  // end-to-end values
    result.per_layer[name] = {value, PerLayerUnit(name)};
  }
  result.per_layer["core.sync_ms_p50"] = {Percentile(script.sync_wall_ms, 50),
                                          "ms"};
  const double covered = tracer_->LayerCoveredMs(root);
  result.per_layer["trace.unattributed_share"] = {
      Ratio(loop_ms - covered, loop_ms), "ratio"};
  result.per_layer["trace.overhead_ms"] = {
      script.wall_ms - scripts[kTraceExecutions - 2].wall_ms, "ms"};
  const std::map<std::string, double> self = tracer_->SelfMsByLayer();
  for (const char* layer : {"util", "compress", "store", "zvol", "cow", "sim",
                            "core", "placement", "bench"}) {
    const auto it = self.find(layer);
    result.per_layer[std::string(layer) + ".self_ms"] = {
        it == self.end() ? 0.0 : it->second, "ms"};
  }
  return result;
}

}  // namespace

RunResult RunWorkload(const Options& options, Tracer& tracer,
                      Checker& checker) {
  Run run(options, tracer, checker);
  return run.Execute();
}

}  // namespace sqbench
