// Codec interface and registry.
//
// The paper evaluates gzip-6, gzip-9, lz4 and lzjb as ZFS inline compressors
// (Figure 3). We implement each family from scratch:
//   * "gzipN"  -> Deflate-style LZ77 + canonical Huffman at effort level N
//   * "lz4"    -> byte-oriented greedy LZ with literal runs, no entropy stage
//   * "lzjb"   -> ZFS's simple bitmap-controlled LZ
//   * "null"   -> identity (the "compression=off" baseline)
// Formats are self-consistent (round-trip verified by property tests), not
// wire-compatible with the originals; only ratio ordering and cost ordering
// matter for the reproduction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace squirrel::compress {

/// Typed codec identifier used throughout configuration structs
/// (BlockStoreConfig, VolumeConfig). String names appear only at the
/// CLI/bench boundary (ParseCodec) and in wire/image formats (CodecName).
/// Enumerator order matches registry order.
enum class CodecId : std::uint8_t {
  kNull = 0,
  kGzip1,
  kGzip2,
  kGzip3,
  kGzip4,
  kGzip5,
  kGzip6,
  kGzip7,
  kGzip8,
  kGzip9,
  kLz4,
  kLzjb,
  kZle,
};

inline constexpr std::size_t kCodecCount = 13;

/// Assumed CPU cost of a codec, in nanoseconds per input byte. Feeds the
/// boot-time simulator, which charges decompression on every block read from
/// a compressed volume. The values are hand-set assumptions, not
/// measurements of this implementation: sqbench `register --trace 1`
/// (seed 901) measured gzip6 decode at 5.41x the modelled cost
/// (`compress.decode_model_drift`) and encode at 1.58x, so simulated boots
/// under-charge decompression.
struct CodecCost {
  double compress_ns_per_byte;
  double decompress_ns_per_byte;
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string_view name() const = 0;

  /// Compresses `input`. The result always round-trips through Decompress.
  /// Codecs may return a payload larger than the input for incompressible
  /// data; callers (the volume write path) decide whether to keep it.
  virtual util::Bytes Compress(util::ByteSpan input) const = 0;

  /// Decompresses `input` produced by this codec's Compress. `expected_size`
  /// is the original payload size (block stores record it in metadata, as ZFS
  /// does in the block pointer). Throws std::runtime_error on corruption.
  virtual util::Bytes Decompress(util::ByteSpan input,
                                 std::size_t expected_size) const = 0;

  virtual CodecCost cost() const = 0;
};

/// Looks up a codec by name ("gzip1".."gzip9", "lz4", "lzjb", "null").
/// Returns nullptr for unknown names. Returned pointers are owned by the
/// registry and valid for the program lifetime; codecs are stateless and
/// thread-safe.
const Codec* FindCodec(std::string_view name);

/// Codec implementation for a typed id. Never fails: every CodecId has a
/// registered implementation. Same ownership/thread-safety as FindCodec.
const Codec& GetCodec(CodecId id);

/// Canonical name of a typed id ("gzip6", "null", ...), for wire formats,
/// logs and CLI round trips.
std::string_view CodecName(CodecId id);

/// Parses a codec name into its typed id; std::nullopt for unknown names.
/// This is the only supported path from strings to CodecId — keep it at
/// CLI/bench/deserialization boundaries.
std::optional<CodecId> ParseCodec(std::string_view name);

/// Names of all registered codecs, in registry order.
std::vector<std::string> CodecNames();

}  // namespace squirrel::compress
