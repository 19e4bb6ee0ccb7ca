#include "store/block_store.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace squirrel::store {
namespace {

using util::Bytes;

Bytes RandomBlock(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng(seed).Fill(data);
  return data;
}

Bytes TextBlock(std::size_t size, std::uint64_t seed) {
  Bytes data(size);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<util::Byte>('a' + rng.Below(4));
  }
  return data;
}

TEST(BlockStore, PutThenGetRoundTrips) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = TextBlock(65536, 1);
  const PutResult put = store.Put(block);
  EXPECT_FALSE(put.deduplicated);
  EXPECT_EQ(store.Get(put.digest), block);
}

TEST(BlockStore, DuplicatePutDeduplicates) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = RandomBlock(4096, 2);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_FALSE(first.deduplicated);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(store.RefCount(first.digest), 2u);
  EXPECT_EQ(store.stats().unique_blocks, 1u);
  EXPECT_EQ(store.stats().total_refs, 2u);
}

TEST(BlockStore, DedupDisabledAllocatesEveryTime) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = false});
  const Bytes block = RandomBlock(4096, 3);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_NE(first.digest, second.digest);
  EXPECT_EQ(store.stats().unique_blocks, 2u);
  EXPECT_EQ(store.stats().ddt_core_bytes, 0u);  // no table without dedup
}

TEST(BlockStore, CompressibleBlocksStoredCompressed) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = TextBlock(65536, 4);
  const PutResult put = store.Put(block);
  EXPECT_LT(put.physical_size, put.logical_size / 2);
  EXPECT_EQ(store.stats().physical_data_bytes, put.physical_size);
}

TEST(BlockStore, IncompressibleBlocksStoredRaw) {
  // ZFS keeps the compressed copy only when it saves >= 1/8th.
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const Bytes block = RandomBlock(65536, 5);
  const PutResult put = store.Put(block);
  EXPECT_EQ(put.physical_size, put.logical_size);
  EXPECT_EQ(store.Get(put.digest), block);
}

TEST(BlockStore, UnrefFreesAtZero) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const Bytes block = RandomBlock(4096, 6);
  const PutResult put = store.Put(block);
  store.Put(block);  // refcount 2
  store.Unref(put.digest);
  EXPECT_TRUE(store.Contains(put.digest));
  store.Unref(put.digest);
  EXPECT_FALSE(store.Contains(put.digest));
  EXPECT_EQ(store.stats().unique_blocks, 0u);
  EXPECT_EQ(store.stats().physical_data_bytes, 0u);
  EXPECT_EQ(store.stats().ddt_core_bytes, 0u);
  EXPECT_EQ(store.space_map_stats().allocated_bytes, 0u);
}

TEST(BlockStore, UnrefUnknownThrows) {
  BlockStore store({});
  util::Digest bogus;
  bogus.bytes[0] = 0xaa;
  EXPECT_THROW(store.Unref(bogus), NoSuchBlockError);
  EXPECT_THROW(store.Get(bogus), NoSuchBlockError);
  EXPECT_THROW(store.Ref(bogus), NoSuchBlockError);
  // The typed error roots at squirrel::Error like every other domain error.
  EXPECT_THROW(store.Unref(bogus), Error);
}

TEST(BlockStore, RefIncrementsExplicitly) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const PutResult put = store.Put(RandomBlock(1024, 7));
  store.Ref(put.digest);
  EXPECT_EQ(store.RefCount(put.digest), 2u);
  EXPECT_EQ(store.stats().total_refs, 2u);
}

TEST(BlockStore, StatsConservation) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  std::vector<util::Digest> digests;
  std::uint64_t expected_refs = 0;
  for (int i = 0; i < 50; ++i) {
    // 25 distinct blocks, each put twice.
    const PutResult put = store.Put(RandomBlock(2048, 100 + i % 25));
    digests.push_back(put.digest);
    ++expected_refs;
  }
  const StoreStats& stats = store.stats();
  EXPECT_EQ(stats.unique_blocks, 25u);
  EXPECT_EQ(stats.total_refs, expected_refs);
  EXPECT_EQ(stats.logical_unique_bytes, 25u * 2048);
  EXPECT_EQ(stats.logical_referenced_bytes, 50u * 2048);
  EXPECT_EQ(stats.ddt_core_bytes, 25u * kDdtCoreBytesPerEntry);
  EXPECT_EQ(stats.ddt_disk_bytes, 25u * kDdtDiskBytesPerEntry);
  EXPECT_EQ(stats.disk_bytes(), stats.physical_data_bytes + stats.ddt_disk_bytes);

  for (const auto& digest : digests) store.Unref(digest);
  EXPECT_EQ(store.stats().unique_blocks, 0u);
  EXPECT_EQ(store.stats().logical_referenced_bytes, 0u);
}

TEST(BlockStore, FastHashModeDeduplicatesIdentically) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true, .fast_hash = true});
  const Bytes block = RandomBlock(8192, 8);
  const PutResult first = store.Put(block);
  const PutResult second = store.Put(block);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(store.Get(first.digest), block);
}

TEST(BlockStore, UnknownCodecRejected) {
  EXPECT_EQ(compress::ParseCodec("nope"), std::nullopt);
  EXPECT_EQ(compress::ParseCodec("gzip6"), compress::CodecId::kGzip6);
  EXPECT_EQ(compress::CodecName(compress::CodecId::kGzip6), "gzip6");
}

TEST(BlockStore, DiskOffsetsAreDistinct) {
  BlockStore store({.codec = compress::CodecId::kNull, .dedup = true});
  const PutResult a = store.Put(RandomBlock(4096, 10));
  const PutResult b = store.Put(RandomBlock(4096, 11));
  EXPECT_NE(store.DiskOffset(a.digest), store.DiskOffset(b.digest));
  EXPECT_EQ(store.PhysicalSize(a.digest), 4096u);
}

TEST(BlockStore, GetStoredBatchReturnsStoredFormsWithoutTouchingTheArc) {
  BlockStore store({.codec = compress::CodecId::kGzip6,
                    .dedup = true,
                    .read = {.cache_bytes = 1 << 20}});
  const Bytes text = TextBlock(4096, 20);
  const Bytes random = RandomBlock(4096, 21);
  const PutResult a = store.Put(text);
  const PutResult b = store.Put(random);
  const util::Digest digests[] = {a.digest, b.digest};
  const std::vector<StoredPayload> stored = store.GetStoredBatch(digests);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_TRUE(stored[0].compressed);
  EXPECT_EQ(util::AlignUp(stored[0].payload.size(), kSectorBytes),
            store.PhysicalSize(a.digest));
  EXPECT_EQ(store.codec().Decompress(stored[0].payload, text.size()), text);
  EXPECT_FALSE(stored[1].compressed);  // incompressible: kept raw
  EXPECT_EQ(stored[1].payload, random);
  const ReadStats reads = store.read_stats();
  EXPECT_EQ(reads.blocks_requested, 0u);
  EXPECT_EQ(reads.cached_bytes, 0u);
}

TEST(BlockStore, GetStoredBatchThrowsLikeGetBatch) {
  BlockStore store({.codec = compress::CodecId::kGzip6, .dedup = true});
  const PutResult a = store.Put(TextBlock(4096, 22));
  const PutResult b = store.Put(TextBlock(4096, 23));
  ASSERT_TRUE(store.CorruptPayloadForTesting(b.digest));
  const util::Digest unknown = util::HashBlock(TextBlock(4096, 24));

  // An unknown digest wins over a corrupt block that precedes it.
  const util::Digest missing_last[] = {a.digest, b.digest, unknown};
  EXPECT_THROW(store.GetStoredBatch(missing_last), NoSuchBlockError);
  EXPECT_THROW(store.GetBatch(missing_last), NoSuchBlockError);

  const util::Digest corrupt[] = {a.digest, b.digest};
  try {
    store.GetStoredBatch(corrupt);
    ADD_FAILURE() << "corrupt block returned";
  } catch (const BlockCorruptionError& e) {
    EXPECT_EQ(e.digest(), b.digest);
  }
  EXPECT_THROW(store.GetBatch(corrupt), BlockCorruptionError);
}

TEST(BlockStore, PutBatchKeepsStoredFormsInsteadOfEncoding) {
  const BlockStoreConfig config{.codec = compress::CodecId::kGzip6,
                                .dedup = true};
  BlockStore sender(config);
  const Bytes text = TextBlock(4096, 25);
  const Bytes random = RandomBlock(4096, 26);
  const util::Digest digests[] = {sender.Put(text).digest,
                                  sender.Put(random).digest};
  const std::vector<StoredPayload> stored = sender.GetStoredBatch(digests);

  // The same blocks put from raw and put with their stored forms land
  // byte-identically: same stats, sizes and offsets.
  BlockStore from_raw(config);
  BlockStore from_stored(config);
  const util::ByteSpan raws[] = {text, random};
  const util::ByteSpan forms[] = {
      stored[0].payload,
      util::ByteSpan{}};  // raw-stored block: no stored form
  const std::vector<PutResult> plain = from_raw.PutBatch(raws);
  const std::vector<PutResult> kept = from_stored.PutBatch(raws, forms);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(kept[i].digest, plain[i].digest);
    EXPECT_EQ(kept[i].physical_size, plain[i].physical_size);
    EXPECT_EQ(from_stored.DiskOffset(digests[i]),
              from_raw.DiskOffset(digests[i]));
  }
  EXPECT_EQ(from_stored.stats().physical_data_bytes,
            from_raw.stats().physical_data_bytes);
  EXPECT_EQ(from_stored.Get(digests[0]), text);
  EXPECT_TRUE(from_stored.Verify(digests[0]));

  const util::ByteSpan too_few[] = {stored[0].payload};
  EXPECT_THROW(from_stored.PutBatch(raws, too_few), std::invalid_argument);
}

}  // namespace
}  // namespace squirrel::store
