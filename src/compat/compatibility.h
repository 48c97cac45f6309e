// The compatibility relations of the paper (Section 3) behind one
// interface. See row_kernels.h for the relation definitions and the
// Proposition 3.5 inclusion chain; see row_cache.h for the shared cache.
//
// Architecture (three layers):
//   row_kernels — pure, stateless ComputeRow functions, one per relation.
//   RowCache    — thread-safe sharded LRU tiered row store (optionally
//                 compressed in memory, spilling evictions to disk; see
//                 row_cache.h), shareable across oracles and worker
//                 threads.
//   CompatibilityOracle (this header) — a thin façade binding (graph,
//                 relation, params) to a cache, with the paper's pair
//                 semantics (reflexivity, SBPH symmetric closure) and a
//                 batched multi-source API.
//
// Distance semantics (paper Section 4): DPE/SPA/SPM/SPO use the shortest
// path length (for compatible pairs a positive shortest path of that length
// exists); SBP/SBPH use the length of the shortest structurally balanced
// positive path; NNE uses the shortest path length ignoring signs.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/compat/row_cache.h"
#include "src/compat/row_kernels.h"
#include "src/compat/sbp.h"
#include "src/graph/signed_graph.h"

namespace tfsn {

class MsBfsScratch;  // ms_signed_bfs.h

/// Tuning knobs for an oracle and its (private) cache.
struct OracleParams {
  /// Row-count cap for the oracle's private cache (LRU eviction). Ignored
  /// when a shared RowCache is supplied. A row costs 1 comp byte plus 1, 2
  /// or 4 distance bytes per node (the narrowest width that holds its
  /// distances; see RowDistances) — 2 bytes per node on typical graphs.
  size_t max_cached_rows = 2048;
  /// Optional byte budget for the private cache (0 = row cap only).
  size_t cache_bytes = 0;
  /// Tier 0 compression for the private cache (see RowCacheOptions).
  /// Representation only — rows decode bit-identically, and the cache key
  /// fingerprint does not include it, so compressed and flat caches over
  /// the same configuration agree on every key.
  bool compress = false;
  /// Tier 1 spill store for the private cache (see RowCacheOptions).
  std::shared_ptr<RowSpillStore> spill;
  /// Exact-SBP engine tuning (kSBP only).
  SbpExactParams sbp;
  /// Depth bound for the SBPH search (kSBPH only).
  uint32_t sbph_max_depth = kUnreachable;
};

/// Query interface over one compatibility relation on one graph.
///
/// A façade over the stateless row kernels and a RowCache: rows are
/// computed on demand, cached, and shared. One oracle instance is NOT
/// thread-safe (GetRow pins rows into instance-local state), but any
/// number of oracles — one per worker thread — may share one RowCache over
/// the same graph; GetRows additionally parallelizes miss computation
/// internally.
class CompatibilityOracle {
 public:
  /// Per-source row type (see row_kernels.h).
  using Row = CompatRow;

  /// Oracle for `kind` over `g`, optionally sharing `cache` with other
  /// oracles (pass nullptr for a private cache sized by `params`). The
  /// graph and the shared cache must outlive the oracle. Oracles sharing a
  /// cache key their rows by (graph, relation, params), so mixed sharing
  /// is safe — but do NOT reuse one cache across graph *lifetimes*: the
  /// fingerprint identifies a graph by address, so a new graph allocated
  /// at a dead graph's address aliases its keys. The façade fails fast
  /// when the aliased rows have a different node count, but same-sized
  /// graphs would be served stale rows undetected — Clear() or drop the
  /// cache when its graphs go away.
  CompatibilityOracle(const SignedGraph& g, CompatKind kind,
                      OracleParams params = {},
                      std::shared_ptr<RowCache> cache = nullptr);

  /// Custom-kernel oracle (e.g. the threshold relation): rows come from
  /// `kernel` with `kernel_params`; `display_kind` is what kind() reports.
  CompatibilityOracle(const SignedGraph& g, CompatKind display_kind,
                      RowKernelFn kernel, RowKernelParams kernel_params,
                      OracleParams params = {},
                      std::shared_ptr<RowCache> cache = nullptr);

  CompatKind kind() const { return kind_; }
  const SignedGraph& graph() const { return *graph_; }

  /// Membership test for (u, v); reflexive and symmetric. (For SBPH — whose
  /// underlying heuristic search is direction-dependent — this is the
  /// symmetric closure: compatible when either direction finds a balanced
  /// positive path; both directions are sound w.r.t. exact SBP.)
  bool Compatible(NodeId u, NodeId v);

  /// Relation-specific distance between u and v (0 when u == v).
  uint32_t Distance(NodeId u, NodeId v);

  /// The full row for source q (computed on demand, cached). Note: for
  /// SBPH the row is *directional* (paths searched from q), matching the
  /// paper's per-source methodology; use Compatible()/Distance() for the
  /// symmetric pair view. The returned reference stays valid for the next
  /// kPinnedRows GetRow calls on this oracle (rows themselves are
  /// refcounted; hold GetRowShared() for longer lifetimes).
  const Row& GetRow(NodeId q);

  /// Like GetRow but hands out the refcounted row: valid for as long as
  /// the caller holds it, immune to cache eviction.
  std::shared_ptr<const Row> GetRowShared(NodeId q);

  /// Cache-resident probe: the row if it sits in the cache's memory tier,
  /// nullptr otherwise — never computes a row and never touches the spill
  /// tier, so the cost is bounded by one decode. Unlike GetRow this does
  /// not pin and is safe from any thread; the degraded serving tier
  /// (TaskCompatView::BuildFromCachedRows) is built on it.
  std::shared_ptr<const Row> PeekRow(NodeId q) const {
    return cache_->Peek(KeyFor(q));
  }

  /// Batched multi-source fetch: probes the cache for every source, then
  /// computes the misses (each exactly once, duplicates deduplicated) and
  /// publishes them to the shared cache. For SPA, SPO, SPM, DPE and NNE
  /// with the stock kernel, two or more misses go through the bit-parallel
  /// engine (ms_signed_bfs.h): they are split into equal blocks of at most
  /// 64 sources, one traversal each, with at least one block per worker
  /// while a block keeps 8 or more sources. Block rows equal the scalar
  /// rows in comp and dist (and in the dist store's width); SPM block rows
  /// also equal them in `saturated`
  /// (lanes whose counts overflow the engine's bit planes are recomputed
  /// scalar). SBP, SBPH, custom kernels (the threshold relation) and a lone
  /// miss use the scalar kernel via ParallelForEach. threads == 0 resolves
  /// to the hardware concurrency / TFSN_THREADS. Returns rows in source
  /// order.
  ///
  /// Note on `saturated` for SPA/SPO: block rows keep no counts and never
  /// set it, while the scalar kernel sets it past 2^64 shortest paths, so a
  /// cached row reports the flag of whichever path computed it first and
  /// aggregate rows_saturated counters are advisory for these relations.
  /// Saturation cannot affect SPA/SPO comp/dist either way; for SPM, where
  /// it matters, the flag is exact on every path.
  std::vector<std::shared_ptr<const Row>> GetRows(
      std::span<const NodeId> sources, uint32_t threads = 1);

  /// Streams the rows of `sources` through `consume(i, row)` in source
  /// order, fetching in fixed-size batches via GetRows: each batch's
  /// misses are computed in parallel (and cached), then its pins are
  /// dropped before the next batch, so peak pinned memory stays at `batch`
  /// rows no matter how many sources are streamed. `consume` runs serially
  /// on the calling thread. Dense-view builders and cache prewarming use
  /// this instead of hand-rolling the chunk loop.
  void StreamRows(std::span<const NodeId> sources, uint32_t threads,
                  const std::function<void(size_t, const Row&)>& consume,
                  size_t batch = 128);

  /// Number of row computations performed through this oracle (cache
  /// misses it paid for); for tests and perf analysis. Rows computed by
  /// other oracles sharing the cache do not count.
  uint64_t rows_computed() const {
    return rows_computed_.load(std::memory_order_relaxed);
  }

  /// Of rows_computed(), the rows GetRows computed in bit-parallel blocks.
  uint64_t block_rows_computed() const {
    return block_rows_.load(std::memory_order_relaxed);
  }

  /// SPM block lanes recomputed by the scalar kernel because a path count
  /// overflowed the engine's bit planes (ms_signed_bfs.h).
  uint64_t overflow_lanes_recomputed() const {
    return overflow_lanes_.load(std::memory_order_relaxed);
  }

  /// The backing cache (shared or private); never null.
  RowCache* row_cache() const { return cache_.get(); }

  const RowKernelParams& kernel_params() const { return kernel_params_; }

  /// How many GetRow references stay pinned (see GetRow).
  static constexpr size_t kPinnedRows = 8;

 private:
  std::shared_ptr<const Row> FetchRow(NodeId q);
  /// GetRows on `workers` resolved workers, worker w computing its blocks
  /// with scratch[w].
  std::vector<std::shared_ptr<const Row>> GetRowsWith(
      std::span<const NodeId> sources, uint32_t workers,
      MsBfsScratch* scratch);
  uint64_t KeyFor(NodeId q) const { return key_base_ | q; }

  const SignedGraph* graph_;
  CompatKind kind_;
  RowKernelFn kernel_;
  RowKernelParams kernel_params_;
  std::shared_ptr<RowCache> cache_;
  /// High 32 bits of every cache key: a fingerprint of (graph, kernel,
  /// params) so distinct configurations sharing a RowCache never collide.
  uint64_t key_base_;
  /// Lock-free ordering contract: a monotonic tally of cache misses this
  /// oracle paid for, bumped with relaxed fetch_add from GetRows' worker
  /// threads and read with a relaxed load (rows_computed()). It publishes
  /// nothing — row data itself is published via RowCache::Insert under the
  /// shard lock — so relaxed is sufficient; the atomic only exists because
  /// GetRows' internal workers bump it concurrently.
  std::atomic<uint64_t> rows_computed_{0};
  /// Same contract as rows_computed_: relaxed monotonic tallies bumped by
  /// GetRows' block workers.
  std::atomic<uint64_t> block_rows_{0};
  std::atomic<uint64_t> overflow_lanes_{0};
  std::array<std::shared_ptr<const Row>, kPinnedRows> pins_;
  size_t pin_cursor_ = 0;
};

/// Creates the oracle for `kind` over `g` with a private cache. The graph
/// must outlive the oracle.
std::unique_ptr<CompatibilityOracle> MakeOracle(const SignedGraph& g,
                                                CompatKind kind,
                                                OracleParams params = {});

/// As above, but sharing `cache` (thread-safe) with other oracles.
std::unique_ptr<CompatibilityOracle> MakeOracle(
    const SignedGraph& g, CompatKind kind, OracleParams params,
    std::shared_ptr<RowCache> cache);

}  // namespace tfsn
