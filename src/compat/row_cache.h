// Thread-safe shared cache of compatibility rows — a tiered row store.
//
// Rows are keyed by an opaque 64-bit key (the oracle façade packs a
// configuration tag into the high half and the source node into the low
// half, so oracles with different relations or parameters can share one
// cache without colliding). The cache is mutex-striped into shards; each
// shard runs byte-budgeted LRU eviction, so hot rows survive mixed
// workloads where the old per-oracle FIFO thrashed.
//
// Three tiers (each optional; the defaults are the flat PR 2 cache):
//
//   Tier 0 — in-memory rows. With options.compress the resident form is a
//     compressed blob (row_codec.h: bit-packed comp + bit-packed/RLE
//     distances, typically 5-10x smaller than a row with 4-byte
//     distances, ~2-4x smaller than a flat row at 1 byte), decoded on
//     pin into the usual shared_ptr<const CompatRow>. The *blob* is what
//     the byte budget charges, so a given budget holds proportionally
//     more rows. A weak_ptr memoizes the live decode: while any caller
//     pins the row, further Gets return the same pointer without
//     re-decoding.
//   Tier 1 — disk spill. With options.spill set, eviction appends the
//     blob to the RowSpillStore (row_spill.h) instead of discarding it,
//     and a tier-0 miss consults the store before reporting a miss — a
//     disk read + decode instead of a full signed-BFS recompute. Rows
//     promoted back from the spill are not re-appended on their next
//     eviction (the store already holds the identical blob).
//   Tier 2 — offline prewarm. Not in this class: serve::PrewarmZipfHead
//     (serve/workload.h) bulk-computes the Zipf-hot holders' rows into
//     the cache through the batched oracle API before a server opens.
//
// Rows are handed out as shared_ptr<const CompatRow>: eviction merely
// drops the cache's reference, so readers on other threads keep their rows
// alive for as long as they hold the pointer. Hit/miss/eviction counters
// are maintained with relaxed atomics and surfaced via stats().
//
// Concurrency contract: all member functions are safe to call from any
// number of threads. A Get miss followed by a compute + Insert may race
// with another thread computing the same key; Insert keeps the first row
// and returns it, so callers always agree on one row per key (kernels are
// deterministic, so the discarded duplicate is bit-identical anyway).
// Spill IO runs outside the shard mutexes; the shard -> spill lock order
// is acyclic (the store never calls back into the cache).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/compat/row_kernels.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace tfsn {

class RowSpillStore;

/// Cache tuning. Budgets are split evenly across shards.
struct RowCacheOptions {
  /// Total byte budget across shards (0 = unbounded). A flat row costs
  /// CompatRow::ByteSize(): 1 comp byte plus 1, 2 or 4 distance bytes per
  /// graph node (2 bytes per node while every distance is at most 254); a
  /// compressed one typically a few times less, and the budget charges
  /// the resident (compressed) size.
  size_t max_bytes = 256ull << 20;
  /// Total row-count budget (0 = unbounded). With several shards the cap
  /// is approximate: each shard holds at most max(1, max_rows / shards).
  size_t max_rows = 0;
  /// Mutex stripes; rounded up to a power of two. Use 1 for a private
  /// single-thread cache (exact row-count semantics), more under
  /// multi-threaded sharing.
  uint32_t shards = 8;
  /// Tier 0 compression: store rows as row_codec blobs, decode on pin.
  bool compress = false;
  /// Tier 1: spill evicted rows here instead of discarding them (shared
  /// so callers can inspect RowSpillStore::stats()). Works with or
  /// without `compress` — uncompressed entries are encoded at eviction.
  std::shared_ptr<RowSpillStore> spill;
};

/// Point-in-time counters. hits/misses/evictions/insertions and the tier
/// counters are monotonic; rows_in_use/bytes_in_use/compressed_bytes
/// reflect current occupancy.
struct RowCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  uint64_t decodes = 0;
  uint64_t decode_ns = 0;
  uint64_t spill_reads = 0;
  uint64_t spill_writes = 0;
  size_t rows_in_use = 0;
  size_t bytes_in_use = 0;
  size_t compressed_bytes = 0;
};

class RowCache {
 public:
  /// Copyable point-in-time copy of the counters, read with relaxed
  /// atomic loads only — unlike stats(), taking one never touches a shard
  /// mutex, so metrics loops (e.g. the serving layer's per-window cache
  /// hit rate) can snapshot at arbitrary frequency without stalling row
  /// lookups. Subtract two snapshots to get a window's deltas.
  struct StatsSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    /// Tier counters: blob decodes (count + total nanoseconds), rows
    /// served out of the spill tier, and blobs appended to it.
    uint64_t decodes = 0;
    uint64_t decode_ns = 0;
    uint64_t spill_reads = 0;
    uint64_t spill_writes = 0;
    /// Occupancy gauge, not a counter: compressed blob bytes resident in
    /// tier 0 at snapshot time. operator- carries the newer snapshot's
    /// value through unchanged (a gauge has no meaningful delta).
    uint64_t compressed_bytes = 0;

    /// Counter deltas `this - earlier` (counters are monotonic, so the
    /// result is well-defined when `earlier` was taken first).
    StatsSnapshot operator-(const StatsSnapshot& earlier) const {
      StatsSnapshot d;
      d.hits = hits - earlier.hits;
      d.misses = misses - earlier.misses;
      d.evictions = evictions - earlier.evictions;
      d.insertions = insertions - earlier.insertions;
      d.decodes = decodes - earlier.decodes;
      d.decode_ns = decode_ns - earlier.decode_ns;
      d.spill_reads = spill_reads - earlier.spill_reads;
      d.spill_writes = spill_writes - earlier.spill_writes;
      d.compressed_bytes = compressed_bytes;
      return d;
    }

    uint64_t lookups() const { return hits + misses; }
    /// hits / (hits + misses); 0 when no lookups happened. A row served
    /// from the spill tier counts as a hit (the caller was spared the
    /// recompute); spill_reads says how many hits came from disk.
    double HitRate() const {
      const uint64_t total = lookups();
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  explicit RowCache(RowCacheOptions options = {});
  RowCache(const RowCache&) = delete;
  RowCache& operator=(const RowCache&) = delete;

  /// The cached row for `key`, or nullptr on miss in every tier. A tier-0
  /// hit refreshes the row's LRU position (decoding the blob first when
  /// compressed and no pinned decode is live); a tier-0 miss consults the
  /// spill store and, on success, promotes the blob back into tier 0 —
  /// both count as hits. Pass count_miss = false when re-probing a key
  /// whose miss was already recorded (e.g. just before computing it), so
  /// the hit/miss counters keep one entry per logical lookup.
  std::shared_ptr<const CompatRow> Get(uint64_t key, bool count_miss = true);

  /// Tier-0-only probe: the resident row (decoded on demand) or nullptr,
  /// never consulting the spill tier and never computing anything — the
  /// serving layer's degraded cache-only path is built on this. Refreshes
  /// LRU recency like Get but records no hit/miss (the hit rate keeps
  /// meaning "fraction of real lookups served").
  std::shared_ptr<const CompatRow> Peek(uint64_t key);

  /// Inserts `row` under `key` and returns it; if another thread inserted
  /// `key` first, the existing row is returned instead and `row` is
  /// dropped. Runs LRU eviction afterwards (the newest row is never the
  /// victim); evicted rows spill to tier 1 when configured.
  std::shared_ptr<const CompatRow> Insert(uint64_t key, CompatRow row);

  /// Aggregated counters (locks each shard briefly for occupancy).
  RowCacheStats stats() const;

  /// Lock-free counter snapshot (no per-shard occupancy; see
  /// StatsSnapshot).
  StatsSnapshot SnapshotCounters() const;

  /// Drops every cached row and clears the spill store (counters are
  /// retained).
  void Clear();

  const RowCacheOptions& options() const { return options_; }
  RowSpillStore* spill() const { return options_.spill.get(); }

 private:
  struct Entry {
    uint64_t key = 0;
    size_t bytes = 0;  // charged against the byte budget
    /// Flat mode: the row itself (blob empty). Compressed mode: row is
    /// null and the blob is authoritative; `pinned` memoizes the live
    /// decode.
    std::shared_ptr<const CompatRow> row;
    std::vector<uint8_t> blob;
    std::weak_ptr<const CompatRow> pinned;
    /// The spill store already holds this exact blob (promoted from it,
    /// or spilled before): skip the append on eviction.
    bool in_spill = false;
  };
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru TFSN_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        TFSN_GUARDED_BY(mu);
    size_t bytes TFSN_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t key);
  // The entry's row, decoding the blob if no live decode exists. Bumps
  // the decode counters; returns nullptr only on blob corruption (cannot
  // happen for blobs this cache encoded).
  std::shared_ptr<const CompatRow> PinEntryLocked(Shard* shard, Entry* entry)
      TFSN_REQUIRES(shard->mu);
  // Evicts from the back of `shard` until budgets hold; never removes the
  // front (most recent) entry. Victims destined for the spill store are
  // moved into *spill_out (written by the caller after unlocking).
  void EvictLocked(Shard* shard, std::vector<Entry>* spill_out)
      TFSN_REQUIRES(shard->mu);
  // Appends the evicted entries to the spill store (no shard lock held).
  void SpillEvicted(std::vector<Entry> victims);
  // Links `entry` at the shard's LRU front and charges its bytes.
  void LinkFrontLocked(Shard* shard, Entry entry) TFSN_REQUIRES(shard->mu);

  RowCacheOptions options_;
  uint32_t num_shards_;
  size_t shard_max_bytes_;  // 0 = unbounded
  size_t shard_max_rows_;   // 0 = unbounded
  std::unique_ptr<Shard[]> shards_;
  // Lock-free ordering contract: the counters below are monotonic event
  // tallies bumped with relaxed RMWs and read with relaxed loads
  // (SnapshotCounters); compressed_bytes_ is an occupancy gauge adjusted
  // with relaxed add/sub under the owning shard's mutex. No other data is
  // published through them, so no acquire/release pairing is needed;
  // totals are exact because fetch_add is atomic, only cross-counter skew
  // is possible (a snapshot may see an insert's `insertions_` bump before
  // its `evictions_` one).
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  mutable std::atomic<uint64_t> decodes_{0};
  mutable std::atomic<uint64_t> decode_ns_{0};
  mutable std::atomic<uint64_t> spill_reads_{0};
  std::atomic<uint64_t> spill_writes_{0};
  std::atomic<uint64_t> compressed_bytes_{0};
};

}  // namespace tfsn
