// Seed -> catalog, materialized cache contents, boot traces and the boot
// loop's image sequence. Everything here runs before the first timed call.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "bench.h"
#include "util/rng.h"

namespace sqbench {
namespace {

vmi::CatalogConfig MakeCatalogConfig(std::uint64_t seed) {
  vmi::CatalogConfig config;
  config.image_count = kImages;
  config.size_scale = kSizeScale;
  config.seed = seed;
  config.cache_bytes = static_cast<std::uint64_t>(
      static_cast<double>(config.cache_bytes) * kCacheMultiplier);
  config.dense_layout = false;  // boot files spread across the disk (Fig 11)
  return config;
}

/// Length of the precomputed boot sequence; the loop wraps around it.
constexpr std::size_t kBootSequenceLength = 1 << 16;
/// Boots between two redraws of the popularity ranking.
constexpr std::size_t kPopularityEpoch = 50;

}  // namespace

MaterializedCache::MaterializedCache(const vmi::VmImage& image,
                                     const std::vector<vmi::Range>& ranges)
    : size_(image.size()), ranges_(ranges) {
  bytes_.reserve(ranges_.size());
  for (const vmi::Range& range : ranges_) {
    util::Bytes bytes(range.length);
    image.Read(range.offset, bytes);
    raw_bytes_ += range.length;
    bytes_.push_back(std::move(bytes));
  }
}

void MaterializedCache::Read(std::uint64_t offset,
                             util::MutableByteSpan out) const {
  std::memset(out.data(), 0, out.size());
  const std::uint64_t end = offset + out.size();
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), offset,
      [](std::uint64_t off, const vmi::Range& r) { return off < r.offset; });
  if (it != ranges_.begin()) --it;
  for (; it != ranges_.end() && it->offset < end; ++it) {
    const std::uint64_t lo = std::max(offset, it->offset);
    const std::uint64_t hi = std::min(end, it->end());
    if (lo >= hi) continue;
    const util::Bytes& src = bytes_[static_cast<std::size_t>(it - ranges_.begin())];
    std::memcpy(out.data() + (lo - offset), src.data() + (lo - it->offset),
                hi - lo);
  }
}

Inputs::Inputs(std::uint64_t seed)
    : catalog(vmi::Catalog::AzureCommunity(MakeCatalogConfig(seed))) {
  const double dataset_scale = kSizeScale * kCacheMultiplier;
  boot_config.io_time_multiplier = 1.0 / dataset_scale;
  io_config = sim::ScaledIoConfig(dataset_scale);

  util::Rng rng(seed ^ 0x5b0b5eedULL);
  images.reserve(catalog.images().size());
  for (const vmi::ImageSpec& spec : catalog.images()) {
    ImageInput input;
    input.id = spec.name;
    input.image = std::make_unique<vmi::VmImage>(catalog, spec);
    const vmi::BootWorkingSet boot(catalog, *input.image);
    input.cache = std::make_unique<MaterializedCache>(*input.image,
                                                      boot.ranges());
    const std::uint64_t trace_seed = rng.Next();
    input.reads = boot.Trace(trace_seed);
    input.writes = boot.WriteTrace(trace_seed);
    for (const vmi::BootRead& read : input.reads) {
      input.read_bytes += read.length;
    }
    raw_cache_bytes += input.cache->raw_bytes();
    images.push_back(std::move(input));
  }

  // Popularity rank r maps to a seeded permutation of the catalog, redrawn
  // every kPopularityEpoch boots: which images are popular drifts, so a run
  // averages over several heads instead of hanging on one seed's choice.
  std::vector<std::uint32_t> by_rank(images.size());
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  const util::ZipfSampler zipf(images.size(), 0.9);
  boot_sequence.reserve(kBootSequenceLength);
  for (std::size_t i = 0; i < kBootSequenceLength; ++i) {
    if (i % kPopularityEpoch == 0) {
      for (std::size_t j = by_rank.size(); j > 1; --j) {
        std::swap(by_rank[j - 1], by_rank[rng.Below(j)]);
      }
    }
    boot_sequence.push_back(by_rank[zipf.Sample(rng)]);
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace sqbench
