// Tests for the on-disk spill tier (row_spill.h): record round-trips,
// per-kind segment files, index rebuild on reopen, crash consistency
// (truncated tails and CRC-corrupt payloads detected, never served), and
// the RowCache integration — evicted rows come back from disk, and a
// corrupted spill record degrades to a recompute, not corrupt data.

#include "src/compat/row_spill.h"

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/compat/compatibility.h"
#include "src/compat/row_cache.h"
#include "src/compat/row_codec.h"
#include "src/gen/generators.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

std::string SpillDir(const char* name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<uint8_t> Payload(uint8_t fill, size_t size) {
  std::vector<uint8_t> out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(fill + i);
  }
  return out;
}

constexpr uint64_t KindA = 0x11110000'00000000ull;
constexpr uint64_t KindB = 0x22220000'00000000ull;

TEST(RowSpillTest, AppendReadRoundTripAcrossSegments) {
  const std::string dir = SpillDir("spill-roundtrip");
  RowSpillStore store(dir);
  ASSERT_TRUE(store.ok());

  ASSERT_TRUE(store.Append(KindA | 1, Payload(1, 100)));
  ASSERT_TRUE(store.Append(KindA | 2, Payload(2, 1)));
  ASSERT_TRUE(store.Append(KindB | 1, Payload(3, 5000)));

  std::vector<uint8_t> got;
  ASSERT_TRUE(store.Read(KindA | 1, &got));
  EXPECT_EQ(got, Payload(1, 100));
  ASSERT_TRUE(store.Read(KindA | 2, &got));
  EXPECT_EQ(got, Payload(2, 1));
  ASSERT_TRUE(store.Read(KindB | 1, &got));
  EXPECT_EQ(got, Payload(3, 5000));
  EXPECT_FALSE(store.Read(KindA | 9, &got));
  EXPECT_TRUE(store.Contains(KindA | 1));
  EXPECT_FALSE(store.Contains(KindB | 2));

  // One segment file per key kind (the high 32 bits).
  const RowSpillStats stats = store.stats();
  EXPECT_EQ(stats.segments, 2u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.corrupt_dropped, 0u);
}

TEST(RowSpillTest, ReAppendSupersedesAndReopenRebuildsIndex) {
  const std::string dir = SpillDir("spill-reopen");
  {
    RowSpillStore store(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.Append(KindA | 7, Payload(1, 64)));
    ASSERT_TRUE(store.Append(KindA | 8, Payload(2, 64)));
    // Later record for the same key wins.
    ASSERT_TRUE(store.Append(KindA | 7, Payload(9, 32)));
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.Read(KindA | 7, &got));
    EXPECT_EQ(got, Payload(9, 32));
    EXPECT_EQ(store.stats().records, 2u);
  }
  // A fresh store over the same directory rebuilds the index by scanning
  // the segments — and still serves the latest version per key.
  RowSpillStore reopened(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.stats().records, 2u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(reopened.Read(KindA | 7, &got));
  EXPECT_EQ(got, Payload(9, 32));
  ASSERT_TRUE(reopened.Read(KindA | 8, &got));
  EXPECT_EQ(got, Payload(2, 64));
}

TEST(RowSpillTest, TruncatedTailDetectedAndDropped) {
  const std::string dir = SpillDir("spill-truncated");
  std::string segment_path;
  {
    RowSpillStore store(dir);
    ASSERT_TRUE(store.Append(KindA | 1, Payload(1, 200)));
    ASSERT_TRUE(store.Append(KindA | 2, Payload(2, 200)));
    segment_path =
        (std::filesystem::directory_iterator(dir)->path()).string();
  }
  // Chop the last record mid-payload — the shape a crash mid-append
  // leaves behind.
  const auto full = std::filesystem::file_size(segment_path);
  std::filesystem::resize_file(segment_path, full - 150);

  RowSpillStore store(dir);
  ASSERT_TRUE(store.ok());
  const RowSpillStats stats = store.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_GE(stats.corrupt_dropped, 1u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.Read(KindA | 1, &got));
  EXPECT_EQ(got, Payload(1, 200));
  EXPECT_FALSE(store.Read(KindA | 2, &got));
  // The broken tail was truncated away: appends produce a clean stream
  // that a further reopen scans fully.
  ASSERT_TRUE(store.Append(KindA | 3, Payload(3, 50)));
  RowSpillStore again(dir);
  EXPECT_EQ(again.stats().records, 2u);
  ASSERT_TRUE(again.Read(KindA | 3, &got));
  EXPECT_EQ(got, Payload(3, 50));
}

TEST(RowSpillTest, CrcCorruptRecordSkippedNotServed) {
  const std::string dir = SpillDir("spill-crc");
  std::string segment_path;
  uint64_t first_size = 0;
  {
    RowSpillStore store(dir);
    ASSERT_TRUE(store.Append(KindA | 1, Payload(1, 100)));
    first_size = store.stats().file_bytes;
    ASSERT_TRUE(store.Append(KindA | 2, Payload(2, 100)));
    segment_path =
        (std::filesystem::directory_iterator(dir)->path()).string();
  }
  // Flip one payload byte of the *first* record (shell stays intact).
  {
    std::FILE* f = std::fopen(segment_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);  // inside record 1's payload
    std::fputc(0xEE, f);
    std::fclose(f);
    ASSERT_GT(first_size, 40u);
  }
  RowSpillStore store(dir);
  ASSERT_TRUE(store.ok());
  const RowSpillStats stats = store.stats();
  // The torn record is skipped — but records *after* it are still served:
  // an intact shell lets the scan stride over the bad payload.
  EXPECT_EQ(stats.records, 1u);
  EXPECT_GE(stats.corrupt_dropped, 1u);
  std::vector<uint8_t> got;
  EXPECT_FALSE(store.Read(KindA | 1, &got));
  ASSERT_TRUE(store.Read(KindA | 2, &got));
  EXPECT_EQ(got, Payload(2, 100));
}

TEST(RowSpillTest, ClearTruncatesSegments) {
  const std::string dir = SpillDir("spill-clear");
  RowSpillStore store(dir);
  ASSERT_TRUE(store.Append(KindA | 1, Payload(1, 100)));
  store.Clear();
  std::vector<uint8_t> got;
  EXPECT_FALSE(store.Read(KindA | 1, &got));
  EXPECT_EQ(store.stats().records, 0u);
  EXPECT_EQ(store.stats().file_bytes, 0u);
  // The store keeps working after a Clear.
  ASSERT_TRUE(store.Append(KindA | 1, Payload(5, 10)));
  ASSERT_TRUE(store.Read(KindA | 1, &got));
  EXPECT_EQ(got, Payload(5, 10));
}

// ---------------------------------------------------------------------------
// RowCache integration: the spill tier serves evictions back.
// ---------------------------------------------------------------------------

CompatRow SpillTestRow(uint32_t n, uint8_t fill) {
  CompatRow row;
  row.comp.assign(n, static_cast<uint8_t>(fill % 2));
  row.dist = RowDistances(n, fill);
  return row;
}

TEST(RowSpillTest, CacheEvictionsComeBackFromDisk) {
  auto spill = std::make_shared<RowSpillStore>(SpillDir("spill-cache"));
  ASSERT_TRUE(spill->ok());
  RowCacheOptions options;
  options.max_rows = 2;
  options.max_bytes = 0;
  options.shards = 1;
  options.compress = true;
  options.spill = spill;
  RowCache cache(options);

  for (uint64_t key = 0; key < 8; ++key) {
    cache.Insert(key, SpillTestRow(64, static_cast<uint8_t>(key)));
  }
  EXPECT_EQ(cache.stats().rows_in_use, 2u);
  EXPECT_GT(spill->stats().appends, 0u);

  // Every evicted row is still served — promoted back from the spill
  // tier, counted as a hit plus a spill read.
  const RowCache::StatsSnapshot before = cache.SnapshotCounters();
  for (uint64_t key = 0; key < 8; ++key) {
    auto row = cache.Get(key);
    ASSERT_NE(row, nullptr) << key;
    EXPECT_EQ(row->dist[0], key) << key;
  }
  const RowCache::StatsSnapshot window = cache.SnapshotCounters() - before;
  EXPECT_EQ(window.hits, 8u);
  EXPECT_EQ(window.misses, 0u);
  EXPECT_GT(window.spill_reads, 0u);
  EXPECT_GT(window.spill_writes, 0u);

  // Clear() empties the spill tier too.
  cache.Clear();
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_EQ(spill->stats().records, 0u);
}

TEST(RowSpillTest, CorruptSpillRecordDegradesToRecompute) {
  // An oracle over a tiny tiered cache: rows are evicted to disk, the
  // spill store is then corrupted wholesale, and every row must still
  // come back correct — recomputed, never decoded from bad bytes.
  Rng rng(127);
  SignedGraph g = RandomConnectedGnm(40, 100, 0.3, &rng);
  const std::string dir = SpillDir("spill-corrupt");
  auto spill = std::make_shared<RowSpillStore>(dir);
  OracleParams params;
  params.max_cached_rows = 2;
  params.compress = true;
  params.spill = spill;
  auto oracle = MakeOracle(g, CompatKind::kSPM, params);
  auto flat = MakeOracle(g, CompatKind::kSPM, OracleParams{});

  for (NodeId q = 0; q < g.num_nodes(); ++q) oracle->GetRow(q);
  ASSERT_GT(spill->stats().records, 0u);

  // Wreck every indexed record in place while the store is open: reads
  // re-verify magic + CRC against the live mapping, so each corrupted
  // record degrades to a miss instead of serving garbage.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto size = std::filesystem::file_size(entry.path());
    std::FILE* f = std::fopen(entry.path().string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::vector<uint8_t> junk(size, 0xEE);
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
    std::fclose(f);
  }
  const uint64_t computed_before = oracle->rows_computed();
  for (NodeId q = 0; q < g.num_nodes(); ++q) {
    const auto& row = oracle->GetRow(q);
    EXPECT_EQ(row.comp, flat->GetRow(q).comp) << q;
    EXPECT_EQ(row.dist, flat->GetRow(q).dist) << q;
  }
  // The poisoned spill tier forced real recomputes, not corrupt serves.
  EXPECT_GT(oracle->rows_computed(), computed_before);
}

}  // namespace
}  // namespace tfsn
