// Per-layer replay of a run's recorded inputs (see replay.h).
#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "compress/codec.h"
#include "cow/chain.h"
#include "placement/reconstruct.h"
#include "placement/reed_solomon.h"
#include "placement/striped_device.h"
#include "sim/devices.h"
#include "store/block_store.h"
#include "util/hash.h"
#include "zvol/volume.h"

namespace sqbench {
namespace {

constexpr std::uint32_t kBlockSize = 64 * 1024;
constexpr std::size_t kBatchBlocks = 128;
/// Script boots replayed through the simulator and the CoW chain.
constexpr std::size_t kReplayBoots = 64;

double MbPerSecond(double bytes, double ms) {
  return ms <= 0.0 ? 0.0 : bytes / 1e6 / (ms / 1000.0);
}

/// Times `fn` under a span named `name`; returns milliseconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  const Clock::time_point start = Clock::now();
  fn();
  return MsSince(start);
}

/// The nonzero 64 KiB blocks of every registered cache, in registration
/// order (duplicates included): what Register hands the store.
std::vector<util::Bytes> RegisteredBlocks(const Inputs& in) {
  std::vector<util::Bytes> blocks;
  for (const ImageInput& image : in.images) {
    std::set<std::uint64_t> indices;
    for (const vmi::Range& r : image.cache->ranges()) {
      for (std::uint64_t b = r.offset / kBlockSize;
           b * kBlockSize < r.end(); ++b) {
        indices.insert(b);
      }
    }
    for (const std::uint64_t b : indices) {
      const std::uint64_t offset = b * kBlockSize;
      const std::uint64_t length =
          std::min<std::uint64_t>(kBlockSize, image.cache->size() - offset);
      util::Bytes block(length);
      image.cache->Read(offset, block);
      if (std::all_of(block.begin(), block.end(),
                      [](std::uint8_t v) { return v == 0; })) {
        continue;
      }
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

zvol::VolumeConfig ShadowVolumeConfig(const core::SquirrelCluster& cluster) {
  zvol::VolumeConfig config = cluster.config().volume;
  config.read.cache_bytes = 0;
  return config;
}

}  // namespace

core::BootRequest BootRequestFor(const Inputs& in, const ImageInput& image) {
  const vmi::VmImage* base = image.image.get();
  return {.image_id = image.id,
          .base_image = *base,
          .trace = image.reads,
          .writes = &image.writes,
          .allocation =
              [base](std::uint64_t offset, std::uint64_t length) {
                return base->RangeHasData(offset, length);
              },
          .boot_config = in.boot_config};
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"util.sha256_mb_s", "MB/s"},
      {"compress.encode_mb_s", "MB/s"},
      {"compress.decode_mb_s", "MB/s"},
      {"compress.ratio", "ratio"},
      {"compress.encode_model_drift", "ratio"},
      {"compress.decode_model_drift", "ratio"},
      {"store.put_batch_mb_s", "MB/s"},
      {"store.dedup_hit_ratio", "ratio"},
      {"store.get_batch_mb_s", "MB/s"},
      {"store.arc_hit_ratio", "ratio"},
      {"store.decompressed_kib_per_boot", "KiB"},
      {"store.ddt_core_bytes", "B"},
      {"store.unique_blocks", "count"},
      {"zvol.write_file_ms", "ms"},
      {"zvol.send_ms", "ms"},
      {"zvol.receive_ms", "ms"},
      {"zvol.diff_kib", "KiB"},
      {"zvol.read_range_mb_s", "MB/s"},
      {"zvol.serialize_mb_s", "MB/s"},
      {"zvol.deserialize_mb_s", "MB/s"},
      {"core.register_self_ms", "ms"},
      {"core.sync_ms_p50", "ms"},
      {"core.full_resyncs", "count"},
      {"core.sync_wire_kib", "KiB"},
      {"core.boot_self_ms", "ms"},
      {"core.boot_net_kib_per_boot", "KiB"},
      {"sim.simulate_boot_ms", "ms"},
      {"sim.io_s_per_boot", "sim_s"},
      {"sim.page_cache_hit_ratio", "ratio"},
      {"cow.cache_read_share", "ratio"},
      {"cow.chain_replay_ms", "ms"},
      {"placement.rs_encode_mb_s", "MB/s"},
      {"placement.rs_decode_mb_s", "MB/s"},
      {"placement.reconstructed_per_boot", "count"},
      {"placement.parity_reads_per_boot", "count"},
      {"placement.fallbacks", "count"},
      {"placement.shard_remote_kib_per_boot", "KiB"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"util.self_ms", "ms"},
      {"compress.self_ms", "ms"},
      {"store.self_ms", "ms"},
      {"zvol.self_ms", "ms"},
      {"cow.self_ms", "ms"},
      {"sim.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"placement.self_ms", "ms"},
      {"bench.self_ms", "ms"},
  };
  return metrics;
}

std::string PerLayerUnit(const std::string& name) {
  for (const auto& [metric, unit] : PerLayerMetrics()) {
    if (metric == name) return unit;
  }
  return "";
}

void Replay(const ReplayInputs& replay, Tracer& tracer, Checker& checker,
            MetricMap* per_layer, std::vector<std::string>* notes) {
  MetricMap& m = *per_layer;
  const Inputs& in = replay.in;
  const std::vector<util::Bytes> blocks = RegisteredBlocks(in);
  double block_bytes = 0.0;
  for (const util::Bytes& b : blocks) block_bytes += static_cast<double>(b.size());

  // util: SHA-256 over every block Register hashes.
  std::vector<std::array<std::uint8_t, 32>> digests(blocks.size());
  const double sha_ms = Timed(tracer, "util.sha256", [&] {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      digests[i] = util::Sha256(blocks[i]);
    }
  });
  m["util.sha256_mb_s"] = {MbPerSecond(block_bytes, sha_ms), "MB/s"};

  std::vector<const util::Bytes*> unique;
  {
    std::set<std::array<std::uint8_t, 32>> seen;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (seen.insert(digests[i]).second) unique.push_back(&blocks[i]);
    }
  }
  double unique_bytes = 0.0;
  for (const util::Bytes* b : unique) unique_bytes += static_cast<double>(b->size());

  // compress: gzip6 over each unique block, then back.
  const compress::Codec& codec = compress::GetCodec(compress::CodecId::kGzip6);
  std::vector<util::Bytes> encoded(unique.size());
  const double encode_ms = Timed(tracer, "compress.encode", [&] {
    for (std::size_t i = 0; i < unique.size(); ++i) {
      encoded[i] = codec.Compress(*unique[i]);
    }
  });
  double encoded_bytes = 0.0;
  for (const util::Bytes& e : encoded) encoded_bytes += static_cast<double>(e.size());
  bool round_trip = true;
  const double decode_ms = Timed(tracer, "compress.decode", [&] {
    for (std::size_t i = 0; i < unique.size(); ++i) {
      round_trip &= codec.Decompress(encoded[i], unique[i]->size()) == *unique[i];
    }
  });
  checker.Check(round_trip, "gzip6 round trip of a registered block");
  const double encode_ns_per_byte = encode_ms * 1e6 / unique_bytes;
  const double decode_ns_per_byte = decode_ms * 1e6 / unique_bytes;
  const compress::CodecCost model = codec.cost();
  m["compress.encode_mb_s"] = {MbPerSecond(unique_bytes, encode_ms), "MB/s"};
  m["compress.decode_mb_s"] = {MbPerSecond(unique_bytes, decode_ms), "MB/s"};
  m["compress.ratio"] = {unique_bytes / encoded_bytes, "ratio"};
  m["compress.encode_model_drift"] = {
      encode_ns_per_byte / model.compress_ns_per_byte, "ratio"};
  m["compress.decode_model_drift"] = {
      decode_ns_per_byte / model.decompress_ns_per_byte, "ratio"};
  char line[200];
  notes->push_back("codec model vs measured (gzip6, ns per raw byte, " +
                   std::to_string(unique.size()) + " unique 64 KiB blocks):");
  std::snprintf(line, sizeof(line),
                "  %-8s %12s %12s %10s", "stage", "measured", "model", "drift");
  notes->push_back(line);
  std::snprintf(line, sizeof(line), "  %-8s %12.3f %12.3f %10.3f", "encode",
                encode_ns_per_byte, model.compress_ns_per_byte,
                encode_ns_per_byte / model.compress_ns_per_byte);
  notes->push_back(line);
  std::snprintf(line, sizeof(line), "  %-8s %12.3f %12.3f %10.3f", "decode",
                decode_ns_per_byte, model.decompress_ns_per_byte,
                decode_ns_per_byte / model.decompress_ns_per_byte);
  notes->push_back(line);

  // store: a fresh block store ingests the registration blocks in batches,
  // then reads every unique block back cold.
  const zvol::VolumeConfig volume_config = ShadowVolumeConfig(replay.cluster);
  store::BlockStoreConfig store_config;
  store_config.codec = volume_config.codec;
  store_config.dedup = volume_config.dedup;
  store_config.fast_hash = volume_config.fast_hash;
  store_config.ingest = volume_config.ingest;
  store_config.read = volume_config.read;
  store::BlockStore block_store(store_config);
  std::uint64_t dedup_hits = 0;
  std::vector<util::Digest> stored;
  double put_ms = 0.0;
  for (std::size_t first = 0; first < blocks.size(); first += kBatchBlocks) {
    const std::size_t last = std::min(blocks.size(), first + kBatchBlocks);
    std::vector<util::ByteSpan> batch(blocks.begin() + first,
                                      blocks.begin() + last);
    std::vector<store::PutResult> results;
    put_ms += Timed(tracer, "store.PutBatch",
                    [&] { results = block_store.PutBatch(batch); });
    for (const store::PutResult& r : results) {
      if (r.deduplicated) {
        ++dedup_hits;
      } else {
        stored.push_back(r.digest);
      }
    }
  }
  m["store.put_batch_mb_s"] = {MbPerSecond(block_bytes, put_ms), "MB/s"};
  m["store.dedup_hit_ratio"] = {
      static_cast<double>(dedup_hits) / static_cast<double>(blocks.size()),
      "ratio"};
  double get_ms = 0.0;
  double got_bytes = 0.0;
  for (std::size_t first = 0; first < stored.size(); first += kBatchBlocks) {
    const std::size_t last = std::min(stored.size(), first + kBatchBlocks);
    const std::span<const util::Digest> batch(stored.data() + first,
                                              last - first);
    std::vector<util::Bytes> payloads;
    get_ms += Timed(tracer, "store.GetBatch",
                    [&] { payloads = block_store.GetBatch(batch); });
    for (const util::Bytes& p : payloads) got_bytes += static_cast<double>(p.size());
  }
  checker.Check(got_bytes == unique_bytes,
                "store read back other bytes than it ingested");
  m["store.get_batch_mb_s"] = {MbPerSecond(got_bytes, get_ms), "MB/s"};

  // zvol: the registration stream on a stand-alone scVolume/ccVolume pair.
  zvol::Volume sc(volume_config);
  zvol::Volume cc(volume_config);
  std::vector<double> write_ms, send_ms, receive_ms;
  double diff_bytes = 0.0;
  std::string previous;
  for (std::size_t i = 0; i < in.images.size(); ++i) {
    const ImageInput& image = in.images[i];
    const std::string file = core::SquirrelCluster::CacheFileName(image.id);
    const std::string snapshot = "replay-" + std::to_string(i);
    write_ms.push_back(Timed(tracer, "zvol.WriteFile",
                             [&] { sc.WriteFile(file, *image.cache); }));
    sc.CreateSnapshot(snapshot, i);
    zvol::SendStream stream;
    send_ms.push_back(
        Timed(tracer, "zvol.Send", [&] { stream = sc.Send(previous, snapshot); }));
    const util::Bytes wire = stream.Serialize();
    diff_bytes += static_cast<double>(wire.size());
    const zvol::SendStream parsed = zvol::SendStream::Deserialize(wire);
    receive_ms.push_back(
        Timed(tracer, "zvol.Receive", [&] { cc.Receive(parsed); }));
    previous = snapshot;
  }
  m["zvol.write_file_ms"] = {Mean(write_ms), "ms"};
  m["zvol.send_ms"] = {Mean(send_ms), "ms"};
  m["zvol.receive_ms"] = {Mean(receive_ms), "ms"};
  m["zvol.diff_kib"] = {diff_bytes / 1024.0 / static_cast<double>(in.images.size()),
                        "KiB"};
  m["core.register_self_ms"] = {
      replay.register_wall_ms - Mean(write_ms) - Mean(send_ms) -
          replay.cc_receivers_per_registration * Mean(receive_ms),
      "ms"};
  double range_bytes = 0.0;
  bool ranges_equal = true;
  const double range_ms = Timed(tracer, "zvol.ReadRange", [&] {
    for (const ImageInput& image : in.images) {
      const std::string file = core::SquirrelCluster::CacheFileName(image.id);
      const MaterializedCache& cache = *image.cache;
      for (std::size_t r = 0; r < cache.ranges().size(); ++r) {
        const vmi::Range& range = cache.ranges()[r];
        ranges_equal &= cc.ReadRange(file, range.offset, range.length) ==
                        cache.range_bytes(r);
        range_bytes += static_cast<double>(range.length);
      }
    }
  });
  checker.Check(ranges_equal, "replayed ccVolume does not read back equal");
  m["zvol.read_range_mb_s"] = {MbPerSecond(range_bytes, range_ms), "MB/s"};
  util::Bytes image;
  const double serialize_ms =
      Timed(tracer, "zvol.Serialize", [&] { image = cc.Serialize(); });
  std::unique_ptr<zvol::Volume> restored;
  const double deserialize_ms = Timed(tracer, "zvol.Deserialize", [&] {
    restored = zvol::Volume::Deserialize(image);
  });
  checker.Check(restored->FileNames() == cc.FileNames(),
                "replayed restore lists other files");
  const double image_bytes = static_cast<double>(image.size());
  m["zvol.serialize_mb_s"] = {MbPerSecond(image_bytes, serialize_ms), "MB/s"};
  m["zvol.deserialize_mb_s"] = {MbPerSecond(image_bytes, deserialize_ms), "MB/s"};

  // placement: 4+2 Reed-Solomon stripes of every unique block, rebuilt with
  // two data shards lost (the degraded workload's worst case).
  const placement::ReedSolomon rs(4, 2);
  std::vector<std::vector<util::Bytes>> stripes(unique.size());
  const double rs_encode_ms = Timed(tracer, "placement.rs_encode", [&] {
    for (std::size_t i = 0; i < unique.size(); ++i) {
      stripes[i] = rs.Encode(*unique[i]);
    }
  });
  bool rebuilt = true;
  const double rs_decode_ms = Timed(tracer, "placement.rs_decode", [&] {
    for (std::size_t i = 0; i < unique.size(); ++i) {
      std::vector<std::optional<util::Bytes>> shards(stripes[i].begin(),
                                                     stripes[i].end());
      shards[0].reset();
      shards[1].reset();
      rebuilt &= rs.Reconstruct(shards, unique[i]->size()) == *unique[i];
    }
  });
  checker.Check(rebuilt, "Reed-Solomon rebuild differs from the block");
  m["placement.rs_encode_mb_s"] = {MbPerSecond(unique_bytes, rs_encode_ms), "MB/s"};
  m["placement.rs_decode_mb_s"] = {MbPerSecond(unique_bytes, rs_decode_ms), "MB/s"};

  // sim and cow: the script's first boots again, through SimulateBoot on the
  // node's own cache device, through Boot, and through a bare CoW chain
  // over the cache file's content.
  core::SquirrelCluster& cluster = replay.cluster;
  sim::NetworkAccountant network(cluster.compute_count() + 1);
  std::vector<double> simulate_ms, boot_ms, chain_ms;
  const std::size_t replays = std::min(kReplayBoots, replay.boots.size());
  for (std::size_t k = 0; k < replays; ++k) {
    const BootRecord& boot = replay.boots[k];
    const ImageInput& image = in.images[boot.image];
    const vmi::VmImage* base_image = image.image.get();
    const std::string file = core::SquirrelCluster::CacheFileName(image.id);
    const std::uint32_t net_id = boot.node + 1;
    sim::IoContext io(in.io_config);
    cow::QcowOverlay overlay(base_image->size(), cow::kDefaultClusterSize);
    const core::BootRequest request = BootRequestFor(in, image);
    sim::RemoteImageDevice base(base_image, &io, &network, net_id,
                                request.allocation);
    std::unique_ptr<cow::WritableDevice> cache;
    std::unique_ptr<placement::ReconstructionSource> source;
    if (cluster.NodeStriped(boot.node)) {
      const placement::StorageSetLayout& layout = *cluster.layout();
      std::vector<placement::ShardPeer> peers;
      for (const std::uint32_t member :
           layout.SetMembers(layout.SetOfNode(net_id))) {
        core::ComputeNode& node = cluster.compute_node(member - 1);
        peers.push_back({member, &node.shards(), node.online(),
                         member == net_id});
      }
      source = std::make_unique<placement::ReconstructionSource>(
          &rs, std::move(peers));
      cache = std::make_unique<placement::StripedFileDevice>(
          &cluster.storage_volume(), file, source.get(),
          &cluster.storage_volume().block_store(), &io, &network, net_id);
    } else {
      cache = std::make_unique<sim::VolumeFileDevice>(
          &cluster.compute_node(boot.node).volume(), file, &io,
          0x1000 + boot.node);
    }
    cow::Chain chain(&overlay, cache.get(), &base, /*copy_on_read=*/false);
    auto simulate = [&] {
      sim::BootResult result;
      simulate_ms.push_back(Timed(tracer, "sim.SimulateBoot", [&] {
        result = sim::SimulateBoot(chain, image.reads, io, in.boot_config,
                                   &image.writes);
      }));
      checker.Check(result.bytes_read == image.read_bytes,
                    "replayed boot of " + image.id + " read other bytes");
    };
    // The same boot through the cluster, for core.boot_self_ms. The two
    // alternate which goes first, so neither always finds the ARC warmer.
    auto boot_call = [&] {
      sim::IoContext boot_io(in.io_config);
      boot_ms.push_back(Timed(tracer, "core.Boot", [&] {
        checker.Op("Boot " + image.id, [&] {
          cluster.Boot(boot.node, request, boot_io);
        });
      }));
    };
    if (k % 2 == 0) {
      simulate();
      boot_call();
    } else {
      boot_call();
      simulate();
    }

    cow::QcowOverlay bare_overlay(base_image->size(), cow::kDefaultClusterSize);
    sim::LocalFileDevice content(image.cache.get(), nullptr, 1, 0);
    cow::Chain bare(&bare_overlay, nullptr, &content, /*copy_on_read=*/false);
    chain_ms.push_back(Timed(tracer, "cow.Chain", [&] {
      for (const vmi::BootRead& read : image.reads) {
        bare.Read(read.offset, read.length);
      }
      for (const vmi::BootRead& write : image.writes) {
        const util::Bytes data(write.length, 0xa5);
        bare.Write(write.offset, data);
      }
    }));
  }
  m["sim.simulate_boot_ms"] = {Mean(simulate_ms), "ms"};
  m["core.boot_self_ms"] = {Mean(boot_ms) - Mean(simulate_ms), "ms"};
  m["cow.chain_replay_ms"] = {Mean(chain_ms), "ms"};
}

}  // namespace sqbench
