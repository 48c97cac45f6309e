// Tests for the kernel / cache / façade split: LRU eviction order, byte
// budgets, cross-thread hit counting, kernel-vs-façade row equality for
// every relation, the batched GetRows API under concurrency, and the
// propagation of SignedBfsResult::saturated through rows into
// CompatPairStats.

#include "src/compat/row_cache.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/compat/compatibility.h"
#include "src/compat/row_kernels.h"
#include "src/compat/stats.h"
#include "src/compat/threshold.h"
#include "src/gen/generators.h"
#include "src/graph/graph_builder.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

CompatRow TestRow(uint32_t n, uint8_t fill) {
  CompatRow row;
  row.comp.assign(n, fill);
  row.dist = RowDistances(n, fill);
  return row;
}

// ---------------------------------------------------------------------------
// RowCache mechanics
// ---------------------------------------------------------------------------

TEST(RowCacheTest, HitMissAndCounters) {
  RowCache cache;
  EXPECT_EQ(cache.Get(1), nullptr);
  auto inserted = cache.Insert(1, TestRow(4, 7));
  ASSERT_NE(inserted, nullptr);
  auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), inserted.get());
  RowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.rows_in_use, 1u);
  EXPECT_GT(stats.bytes_in_use, 0u);
}

TEST(RowCacheTest, SnapshotCountersMatchStatsAndSubtract) {
  RowCache cache;
  cache.Insert(1, TestRow(4, 7));
  EXPECT_EQ(cache.Get(2), nullptr);  // miss
  cache.Get(1);                      // hit

  const RowCache::StatsSnapshot before = cache.SnapshotCounters();
  const RowCacheStats stats = cache.stats();
  EXPECT_EQ(before.hits, stats.hits);
  EXPECT_EQ(before.misses, stats.misses);
  EXPECT_EQ(before.evictions, stats.evictions);
  EXPECT_EQ(before.insertions, stats.insertions);
  EXPECT_DOUBLE_EQ(before.HitRate(), 0.5);

  // Window deltas via operator-: 3 hits, 1 miss in the window.
  cache.Get(1);
  cache.Get(1);
  cache.Get(1);
  cache.Get(3);
  const RowCache::StatsSnapshot window = cache.SnapshotCounters() - before;
  EXPECT_EQ(window.hits, 3u);
  EXPECT_EQ(window.misses, 1u);
  EXPECT_EQ(window.lookups(), 4u);
  EXPECT_DOUBLE_EQ(window.HitRate(), 0.75);
  EXPECT_DOUBLE_EQ((RowCache::StatsSnapshot{}).HitRate(), 0.0);
}

TEST(RowCacheTest, LruEvictionOrder) {
  RowCacheOptions options;
  options.max_rows = 2;
  options.max_bytes = 0;
  options.shards = 1;
  RowCache cache(options);
  cache.Insert(1, TestRow(4, 1));
  cache.Insert(2, TestRow(4, 2));
  ASSERT_NE(cache.Get(1), nullptr);  // refresh 1: now 2 is least recent
  cache.Insert(3, TestRow(4, 3));    // evicts 2, not 1
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().rows_in_use, 2u);
}

TEST(RowCacheTest, ByteBudgetEvicts) {
  const size_t row_bytes = TestRow(1000, 0).ByteSize();
  RowCacheOptions options;
  options.max_bytes = 3 * row_bytes;  // fits 3 rows, not 5
  options.shards = 1;
  RowCache cache(options);
  for (uint64_t key = 0; key < 5; ++key) {
    cache.Insert(key, TestRow(1000, 1));
  }
  RowCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_in_use, options.max_bytes);
  EXPECT_LE(stats.rows_in_use, 3u);
  // The most recent row always survives.
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_EQ(cache.Get(0), nullptr);
}

TEST(RowCacheTest, EvictionNeverDropsTheOnlyRow) {
  RowCacheOptions options;
  options.max_bytes = 1;  // smaller than any row
  options.shards = 1;
  RowCache cache(options);
  auto row = cache.Insert(9, TestRow(100, 2));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(cache.stats().rows_in_use, 1u);
  // A second insert evicts the first, keeping exactly the newest.
  cache.Insert(10, TestRow(100, 3));
  EXPECT_EQ(cache.stats().rows_in_use, 1u);
  EXPECT_EQ(cache.Get(9), nullptr);
  // The evicted row stays alive for holders of the shared_ptr.
  EXPECT_EQ(row->comp.size(), 100u);
}

TEST(RowCacheTest, InsertRaceKeepsFirstRow) {
  RowCache cache;
  auto first = cache.Insert(5, TestRow(8, 1));
  auto second = cache.Insert(5, TestRow(8, 2));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(second->comp[0], 1);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(RowCacheTest, ClearDropsRowsKeepsCounters) {
  RowCache cache;
  cache.Insert(1, TestRow(4, 1));
  cache.Get(1);
  cache.Clear();
  EXPECT_EQ(cache.Get(1), nullptr);
  RowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rows_in_use, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(RowCacheTest, CrossThreadHitCounting) {
  RowCache cache;
  constexpr int kKeys = 16;
  for (uint64_t key = 0; key < kKeys; ++key) {
    cache.Insert(key, TestRow(32, static_cast<uint8_t>(key)));
  }
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 500;
  std::vector<std::thread> pool;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&cache, &wrong, t] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>((t + i) % kKeys);
        auto row = cache.Get(key);
        if (row == nullptr || row->comp[0] != static_cast<uint8_t>(key)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // No eviction pressure: every read is a hit and every hit is counted.
  EXPECT_EQ(cache.stats().hits,
            static_cast<uint64_t>(kThreads) * kReadsPerThread);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Tier 0 compression (see row_cache.h)
// ---------------------------------------------------------------------------

TEST(RowCacheTest, CompressedCacheKeepsIdentityWhilePinned) {
  RowCacheOptions options;
  options.compress = true;
  options.shards = 1;
  RowCache cache(options);
  auto inserted = cache.Insert(1, TestRow(64, 1));
  ASSERT_NE(inserted, nullptr);
  // While the insert's pointer is live, Get memoizes it — no decode.
  auto hit = cache.Get(1);
  EXPECT_EQ(hit.get(), inserted.get());
  EXPECT_EQ(cache.stats().decodes, 0u);

  // Drop every pin: the next Get must decode the blob — bit-identical
  // contents, a fresh allocation, and the decode counters move.
  const CompatRow dense = TestRow(64, 1);
  inserted.reset();
  hit.reset();
  auto decoded = cache.Get(1);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->comp, dense.comp);
  EXPECT_EQ(decoded->dist, dense.dist);
  const RowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.decodes, 1u);
  EXPECT_GT(stats.decode_ns, 0u);
  // The resident form is the blob: the gauge is charged and far below
  // the dense footprint.
  EXPECT_GT(stats.compressed_bytes, 0u);
  EXPECT_LT(stats.compressed_bytes, dense.ByteSize());
  // Charged bytes = blob + a fixed per-entry overhead (well under 256).
  EXPECT_GE(stats.bytes_in_use, stats.compressed_bytes);
  EXPECT_LT(stats.bytes_in_use, stats.compressed_bytes + 256);
}

// The byte budget must govern what the cache actually holds resident —
// the satellite regression: with compression on, charged bytes are blob
// bytes (plus fixed entry overhead), and churn never overshoots the
// budget by more than the single-protected-row allowance.
TEST(RowCacheTest, CompressedByteBudgetHonoredUnderChurn) {
  RowCacheOptions options;
  options.compress = true;
  options.shards = 4;
  options.max_bytes = 64 * 1024;
  RowCache cache(options);
  Rng rng(131);
  for (int i = 0; i < 400; ++i) {
    // Ragged, incompressible-ish rows (random dist) of varying size.
    const uint32_t n = 50 + static_cast<uint32_t>(rng.Next() % 400);
    CompatRow row;
    row.comp.resize(n);
    row.dist = RowDistances(n, 0);
    for (uint32_t j = 0; j < n; ++j) {
      row.comp[j] = static_cast<uint8_t>(rng.Next() % 2);
      row.dist.Set(j, static_cast<uint32_t>(rng.Next() % 1000));
    }
    cache.Insert(static_cast<uint64_t>(i), std::move(row));
    if (i % 3 == 0) cache.Get(static_cast<uint64_t>(rng.Next() % (i + 1)));
    // Within 5% at every step: eviction runs to the budget, and the
    // "never evict the newest row" allowance cannot exceed one row per
    // shard.
    EXPECT_LE(cache.stats().bytes_in_use,
              static_cast<size_t>(options.max_bytes * 1.05))
        << "insert " << i;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(RowCacheTest, CompressedGaugeDrainsOnEvictionAndClear) {
  RowCacheOptions options;
  options.compress = true;
  options.shards = 1;
  options.max_rows = 2;
  options.max_bytes = 0;
  RowCache cache(options);
  for (uint64_t key = 0; key < 6; ++key) {
    cache.Insert(key, TestRow(128, 1));
  }
  const RowCacheStats mid = cache.stats();
  EXPECT_EQ(mid.rows_in_use, 2u);
  EXPECT_GT(mid.compressed_bytes, 0u);
  // The gauge tracks exactly the resident blobs — eviction released the
  // other four.
  EXPECT_GE(mid.bytes_in_use, mid.compressed_bytes);
  EXPECT_LT(mid.bytes_in_use, mid.compressed_bytes + 2 * 256);
  cache.Clear();
  EXPECT_EQ(cache.stats().compressed_bytes, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
}

TEST(SharedCacheTest, OracleOverCompressedCacheMatchesFlat) {
  Rng rng(137);
  SignedGraph g = RandomConnectedGnm(36, 90, 0.3, &rng);
  RowCacheOptions options;
  options.compress = true;
  auto cache = std::make_shared<RowCache>(options);
  for (CompatKind kind : AllCompatKinds()) {
    auto tiered = MakeOracle(g, kind, {}, cache);
    auto flat = MakeOracle(g, kind, {});
    for (NodeId q = 0; q < g.num_nodes(); q += 4) {
      const auto& got = tiered->GetRow(q);
      const auto& want = flat->GetRow(q);
      EXPECT_EQ(got.comp, want.comp) << CompatKindName(kind) << " q=" << q;
      EXPECT_EQ(got.dist, want.dist) << CompatKindName(kind) << " q=" << q;
      EXPECT_EQ(got.saturated, want.saturated) << CompatKindName(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel vs façade equality — GetRow must be bit-identical to the kernels
// for every relation (the façade adds caching, never different rows).
// ---------------------------------------------------------------------------

TEST(RowKernelTest, KernelMatchesOracleRowForAllKinds) {
  Rng rng(61);
  SignedGraph g = RandomConnectedGnm(28, 64, 0.3, &rng);
  for (CompatKind kind : AllCompatKinds()) {
    OracleParams params;
    auto oracle = MakeOracle(g, kind, params);
    RowKernelParams kernel_params;
    kernel_params.sbp = params.sbp;
    kernel_params.sbph_max_depth = params.sbph_max_depth;
    for (NodeId q = 0; q < g.num_nodes(); q += 5) {
      CompatRow expected = ComputeCompatRow(g, kind, kernel_params, q);
      const auto& actual = oracle->GetRow(q);
      EXPECT_EQ(actual.comp, expected.comp) << CompatKindName(kind) << " q=" << q;
      EXPECT_EQ(actual.dist, expected.dist) << CompatKindName(kind) << " q=" << q;
      EXPECT_EQ(actual.saturated, expected.saturated) << CompatKindName(kind);
    }
  }
}

TEST(RowKernelTest, ThresholdKernelMatchesThresholdOracle) {
  Rng rng(67);
  SignedGraph g = RandomConnectedGnm(30, 80, 0.35, &rng);
  for (double theta : {0.0, 0.4, 1.0}) {
    auto oracle = MakeThresholdOracle(g, theta);
    RowKernelParams kernel_params;
    kernel_params.threshold_theta = theta;
    for (NodeId q = 0; q < g.num_nodes(); q += 7) {
      CompatRow expected = ComputeThresholdRow(g, kernel_params, q);
      const auto& actual = oracle->GetRow(q);
      EXPECT_EQ(actual.comp, expected.comp) << "theta=" << theta;
      EXPECT_EQ(actual.dist, expected.dist) << "theta=" << theta;
    }
  }
}

TEST(RowKernelTest, KernelsNormalizeReflexivity) {
  Rng rng(71);
  SignedGraph g = RandomConnectedGnm(20, 45, 0.4, &rng);
  RowKernelParams params;
  for (CompatKind kind : AllCompatKinds()) {
    CompatRow row = ComputeCompatRow(g, kind, params, 3);
    EXPECT_EQ(row.comp[3], 1) << CompatKindName(kind);
    EXPECT_EQ(row.dist[3], 0u) << CompatKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// Façade over a shared cache
// ---------------------------------------------------------------------------

TEST(SharedCacheTest, OraclesShareRowsWithoutCrossKindCollisions) {
  Rng rng(73);
  SignedGraph g = RandomConnectedGnm(24, 50, 0.3, &rng);
  auto cache = std::make_shared<RowCache>();
  auto spm_a = MakeOracle(g, CompatKind::kSPM, {}, cache);
  auto spm_b = MakeOracle(g, CompatKind::kSPM, {}, cache);
  auto nne = MakeOracle(g, CompatKind::kNNE, {}, cache);

  const auto& row = spm_a->GetRow(2);
  EXPECT_EQ(spm_a->rows_computed(), 1u);
  // Same kind + params: the second oracle hits the shared row.
  EXPECT_EQ(spm_b->GetRow(2).comp, row.comp);
  EXPECT_EQ(spm_b->rows_computed(), 0u);
  // Different kind: distinct key space, must compute its own row.
  EXPECT_NE(nne->GetRow(2).comp, row.comp);
  EXPECT_EQ(nne->rows_computed(), 1u);
}

TEST(SharedCacheTest, GetRowReferenceSurvivesEviction) {
  Rng rng(79);
  SignedGraph g = RandomConnectedGnm(20, 40, 0.25, &rng);
  OracleParams params;
  params.max_cached_rows = 1;
  auto oracle = MakeOracle(g, CompatKind::kSPO, params);
  const auto& row0 = oracle->GetRow(0);
  std::vector<uint8_t> snapshot = row0.comp;
  oracle->GetRow(1);  // evicts row 0 from the cache
  oracle->GetRow(2);  // and again
  // The pinned reference is still readable and unchanged.
  EXPECT_EQ(row0.comp, snapshot);
}

TEST(SharedCacheTest, GetRowsBatchMatchesSerialAndDedupes) {
  Rng rng(83);
  SignedGraph g = RandomConnectedGnm(40, 100, 0.3, &rng);
  auto serial = MakeOracle(g, CompatKind::kSPA);
  auto batch = MakeOracle(g, CompatKind::kSPA);
  std::vector<NodeId> sources = {5, 9, 5, 13, 9, 0};
  auto rows = batch->GetRows(sources, /*threads=*/4);
  ASSERT_EQ(rows.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_NE(rows[i], nullptr);
    EXPECT_EQ(rows[i]->comp, serial->GetRow(sources[i]).comp) << i;
    EXPECT_EQ(rows[i]->dist, serial->GetRow(sources[i]).dist) << i;
  }
  // Duplicate sources resolve to the same row object, computed once.
  EXPECT_EQ(rows[0].get(), rows[2].get());
  EXPECT_EQ(rows[1].get(), rows[4].get());
  EXPECT_EQ(batch->rows_computed(), 4u);  // 4 distinct sources
  // A second batch is all hits.
  auto again = batch->GetRows(sources, /*threads=*/2);
  EXPECT_EQ(batch->rows_computed(), 4u);
  EXPECT_EQ(again[3]->comp, rows[3]->comp);
}

TEST(SharedCacheTest, ConcurrentGetRowsHammer) {
  Rng rng(89);
  SignedGraph g = RandomConnectedGnm(60, 150, 0.3, &rng);
  auto cache = std::make_shared<RowCache>();
  auto reference = MakeOracle(g, CompatKind::kSPM);

  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread drives its own façade over the shared cache, batching
      // with a different internal worker count.
      CompatibilityOracle oracle(g, CompatKind::kSPM, {}, cache);
      auto rows = oracle.GetRows(all, /*threads=*/1 + (t % 3));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (rows[u] == nullptr || rows[u]->comp.size() != g.num_nodes()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Every row agrees with a serial private-cache oracle.
  CompatibilityOracle check(g, CompatKind::kSPM, {}, cache);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(check.GetRow(u).comp, reference->GetRow(u).comp) << u;
  }
  // The cache holds one row per source; duplicated computes may happen
  // under racing (first insert wins) but hits must dominate.
  RowCacheStats stats = cache->stats();
  EXPECT_EQ(stats.rows_in_use, g.num_nodes());
  EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// Saturation propagation (satellite): rows -> CompatPairStats
// ---------------------------------------------------------------------------

// A ladder of positive diamonds: stage i doubles the number of shortest
// paths, so ~70 stages overflow the uint64 path counters.
SignedGraph DoublingLadder(uint32_t stages) {
  SignedGraphBuilder b(1 + 3 * stages);
  NodeId prev = 0;
  for (uint32_t i = 0; i < stages; ++i) {
    NodeId a = 1 + 3 * i, mid = a + 1, end = a + 2;
    b.AddEdge(prev, a, Sign::kPositive).CheckOK();
    b.AddEdge(prev, mid, Sign::kPositive).CheckOK();
    b.AddEdge(a, end, Sign::kPositive).CheckOK();
    b.AddEdge(mid, end, Sign::kPositive).CheckOK();
    prev = end;
  }
  return std::move(b.Build()).ValueOrDie();
}

TEST(SaturationTest, LadderSaturatesCountsAndPropagates) {
  SignedGraph g = DoublingLadder(70);
  RowKernelParams params;
  CompatRow row = ComputeSpaRow(g, params, 0);
  EXPECT_TRUE(row.saturated);
  // Short ladders stay exact.
  SignedGraph small = DoublingLadder(10);
  EXPECT_FALSE(ComputeSpaRow(small, params, 0).saturated);

  // End-to-end into the pair statistics.
  auto oracle = MakeOracle(g, CompatKind::kSPO);
  Rng rng(1);
  CompatPairStats stats = ComputeCompatPairStats(oracle.get(), 0, &rng);
  EXPECT_GT(stats.rows_saturated, 0u);
  EXPECT_LE(stats.rows_saturated, stats.sources_used);

  CompatPairStats parallel_stats = ComputeCompatPairStatsParallel(
      g, CompatKind::kSPO, OracleParams{}, 0, /*seed=*/1, /*threads=*/4);
  EXPECT_EQ(parallel_stats.rows_saturated, stats.rows_saturated);
}

TEST(SaturationTest, NonSpKernelsNeverSetSaturated) {
  Rng rng(97);
  SignedGraph g = RandomConnectedGnm(20, 40, 0.3, &rng);
  RowKernelParams params;
  for (CompatKind kind :
       {CompatKind::kDPE, CompatKind::kSBPH, CompatKind::kSBP,
        CompatKind::kNNE}) {
    EXPECT_FALSE(ComputeCompatRow(g, kind, params, 0).saturated)
        << CompatKindName(kind);
  }
}

}  // namespace
}  // namespace tfsn
