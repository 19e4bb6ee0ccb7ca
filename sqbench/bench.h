// Shared declarations of the Squirrel benchmark driver (sqbench).
//
// The driver runs one named workload against the library's public entry
// points, times every call from outside, checks the outputs, and prints one
// JSON result line. See README.md in this directory for the workloads, the
// metric definitions and the per-layer map.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/boot_sim.h"
#include "sim/io_context.h"
#include "util/bytes.h"
#include "util/source.h"
#include "vmi/bootset.h"
#include "vmi/catalog.h"
#include "vmi/image.h"

namespace sqbench {

using namespace squirrel;
using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- sizing: the paper configuration, downscaled -----------------------------

inline constexpr std::uint32_t kImages = 64;
inline constexpr double kSizeScale = 1.0 / 1024.0;
inline constexpr double kCacheMultiplier = 2.0;
/// Worker threads of every volume's ingest and read pools.
inline constexpr std::size_t kPoolThreads = 2;
/// Executions of set-up and script in a trace run (pool threads 1, 2, 2).
inline constexpr int kTraceExecutions = 3;
/// Set-ups of an untraced run: the measured cluster's, then two more whose
/// registrations alternate with slices of measured boots (setup_s is the
/// median of the three).
inline constexpr int kSetUps = 3;
/// Minimum Deserialize calls per run, and the wall time between two of them
/// while measuring.
inline constexpr std::size_t kMinRestoreSamples = 6;
inline constexpr std::chrono::milliseconds kRestoreInterval{2500};
/// Boots in the fixed (deterministic) part of the boot and degraded runs,
/// and in the register run's boot pass.
inline constexpr std::uint32_t kScriptBoots = 400;
inline constexpr std::uint32_t kRegisterBootPass = 240;
/// Boots of the pass after each registration of the register loop.
inline constexpr std::uint32_t kRegisterLoopBoots = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (trace runs only)
};

// --- inputs -------------------------------------------------------------------

/// A VMI cache file held in memory: the boot working set ranges of one image
/// with their bytes generated once, so Register never pays for synthesizing
/// content. Reads outside the ranges return zeros (sparse).
class MaterializedCache final : public util::DataSource {
 public:
  MaterializedCache(const vmi::VmImage& image,
                    const std::vector<vmi::Range>& ranges);

  std::uint64_t size() const override { return size_; }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override;

  const std::vector<vmi::Range>& ranges() const { return ranges_; }
  const util::Bytes& range_bytes(std::size_t i) const { return bytes_[i]; }
  std::uint64_t raw_bytes() const { return raw_bytes_; }

 private:
  std::uint64_t size_ = 0;
  std::vector<vmi::Range> ranges_;
  std::vector<util::Bytes> bytes_;
  std::uint64_t raw_bytes_ = 0;
};

struct ImageInput {
  std::string id;
  std::unique_ptr<vmi::VmImage> image;
  std::unique_ptr<MaterializedCache> cache;
  std::vector<vmi::BootRead> reads;
  std::vector<vmi::BootRead> writes;
  std::uint64_t read_bytes = 0;  // sum of the read trace's lengths
};

/// Everything a run feeds the library, derived from the seed before any
/// timed call. Not movable: VmImages point into the catalog.
struct Inputs {
  explicit Inputs(std::uint64_t seed);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  vmi::Catalog catalog;
  std::vector<ImageInput> images;  // registration order
  /// Image indices of the boot loop: Zipf(0.9) popularity over a seeded
  /// permutation of the catalog, redrawn every 50 boots.
  std::vector<std::uint32_t> boot_sequence;
  std::uint64_t raw_cache_bytes = 0;  // nonzero cache bytes, whole catalog
  sim::BootSimConfig boot_config;
  sim::IoContextConfig io_config;
};

// --- tracing ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Spans nest by call order (single-threaded driver).
class Tracer {
 public:
  explicit Tracer(bool enabled);

  int Begin(std::string_view name);
  void End(int id);

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  bool WriteChrome(const std::string& path) const;
  /// Self time (span minus the part its children cover) summed per layer,
  /// where the layer is the span name up to the first '.'.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Milliseconds of `root`'s interval covered by its direct children whose
  /// layer is not "bench".
  double LayerCoveredMs(int root) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- results -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Correctness bookkeeping shared by every phase of a run.
class Checker {
 public:
  /// Records a failed check (logged to stderr, first few only).
  void Check(bool ok, const std::string& what);
  /// Runs one library operation: counts it as attempted, and as failed if it
  /// throws. Returns false on failure.
  bool Op(const std::string& what, const std::function<void()>& fn);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed_ops() const { return failed_ops_; }
  std::uint64_t failed_checks() const { return failed_checks_; }

 private:
  void Log(const std::string& line);
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t failed_checks_ = 0;
  std::uint64_t logged_ = 0;
};

/// What a workload run hands back to main().
struct RunResult {
  /// Untraced runs: raw samples, from which run.py computes the end-to-end
  /// metrics, and the deterministic end-to-end values.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> scalars;
  MetricMap per_layer;
  /// Values that must repeat exactly for a seed (trace runs compare three
  /// executions of the fixed part of the run).
  std::map<std::string, double> deterministic;
  std::vector<std::string> notes;  // extra stdout lines (drift table)
};

RunResult RunWorkload(const Options& options, Tracer& tracer,
                      Checker& checker);

// --- helpers --------------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

}  // namespace sqbench
