// The decoded-chunk LRU cache: capacity enforcement, recency-order
// eviction and hit/miss counters (src/store/reader.cc).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/time_series.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace lossyts::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// `chunks` chunks of 4 points each, lossless so decode results are exact.
std::unique_ptr<StoreReader> ManyChunkStore(const std::string& name,
                                            size_t chunks) {
  StoreOptions options;
  options.chunk_span = 4;
  options.codecs = {"GORILLA"};
  std::vector<double> values;
  for (size_t i = 0; i < chunks * 4; ++i) {
    values.push_back(static_cast<double>(i) * 0.25 - 10.0);
  }
  const std::string path = TempPath(name);
  auto writer = StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->Append(TimeSeries(0, 60, std::move(values))).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  auto reader = StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->chunks().size(), chunks);
  return std::move(*reader);
}

TEST(StoreCacheTest, CapacityBoundsTheCacheEvenAcrossAFullScan) {
  auto reader = ManyChunkStore("cache_cap.lts", 100);
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->values().size(), 400u);
  // 100 distinct chunks decoded once each through a 64-entry cache.
  EXPECT_EQ(reader->cache_misses(), 100u);
  EXPECT_EQ(reader->cache_hits(), 0u);
  EXPECT_EQ(reader->cached_chunks(), StoreReader::kChunkCacheCapacity);
}

TEST(StoreCacheTest, EvictionFollowsRecencyNotInsertionOrder) {
  constexpr size_t kCapacity = StoreReader::kChunkCacheCapacity;
  auto reader = ManyChunkStore("cache_lru.lts", kCapacity + 2);

  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(reader->DecodeChunkValues(i).ok());  // miss: fills the cache
  }
  ASSERT_TRUE(reader->DecodeChunkValues(0).ok());  // hit: 0 becomes MRU
  ASSERT_TRUE(reader->DecodeChunkValues(kCapacity).ok());  // evicts 1, not 0
  EXPECT_EQ(reader->cached_chunks(), kCapacity);
  EXPECT_EQ(reader->cache_hits(), 1u);
  EXPECT_EQ(reader->cache_misses(), kCapacity + 1);

  ASSERT_TRUE(reader->DecodeChunkValues(0).ok());  // hit: survived
  EXPECT_EQ(reader->cache_hits(), 2u);
  ASSERT_TRUE(reader->DecodeChunkValues(1).ok());  // miss: was evicted
  EXPECT_EQ(reader->cache_misses(), kCapacity + 2);
  EXPECT_EQ(reader->cached_chunks(), kCapacity);

  // Decoded values are correct regardless of cache churn.
  auto chunk = reader->DecodeChunkValues(1);
  ASSERT_TRUE(chunk.ok());
  ASSERT_EQ((*chunk)->size(), 4u);
  EXPECT_EQ((**chunk)[0], 4 * 0.25 - 10.0);
}

TEST(StoreCacheTest, ClearAndPointReadsShareTheCounters) {
  auto reader = ManyChunkStore("cache_clear.lts", 6);
  ASSERT_TRUE(reader->ReadRange(0, 23 * 60).ok());
  EXPECT_EQ(reader->cache_misses(), 6u);
  reader->ClearChunkCache();
  EXPECT_EQ(reader->cached_chunks(), 0u);
  // Counters are monotone across a clear; the re-read misses again.
  ASSERT_TRUE(reader->ReadRange(0, 23 * 60).ok());
  EXPECT_EQ(reader->cache_misses(), 12u);
}

}  // namespace
}  // namespace lossyts::store
