#include "src/compat/compatibility.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/compat/ms_signed_bfs.h"
#include "src/util/fnv1a.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace tfsn {

namespace {

// FNV-1a over the configuration so that oracles with different relations,
// kernels, parameters, or graphs can share one RowCache without key
// collisions (the fingerprint fills the high 32 bits of every key).
class ConfigHash {
 public:
  void Mix(uint64_t v) { h_.Mix(v); }
  uint64_t KeyBase() const { return (h_.digest() >> 32) << 32; }

 private:
  Fnv1a h_;
};

uint64_t MakeKeyBase(const SignedGraph* g, CompatKind kind, RowKernelFn kernel,
                     const RowKernelParams& p) {
  ConfigHash h;
  h.Mix(reinterpret_cast<uintptr_t>(g));
  h.Mix(static_cast<uint64_t>(kind));
  h.Mix(reinterpret_cast<uintptr_t>(kernel));
  h.Mix(p.sbp.max_depth);
  h.Mix(p.sbp.expansion_budget);
  h.Mix(p.sbph_max_depth);
  uint64_t theta_bits;
  static_assert(sizeof(theta_bits) == sizeof(p.threshold_theta));
  std::memcpy(&theta_bits, &p.threshold_theta, sizeof(theta_bits));
  h.Mix(theta_bits);
  return h.KeyBase();
}

std::shared_ptr<RowCache> PrivateCache(const OracleParams& params) {
  RowCacheOptions options;
  options.max_rows = params.max_cached_rows;
  options.max_bytes = params.cache_bytes;
  options.shards = 1;  // exact row-count semantics, no striping overhead
  options.compress = params.compress;
  options.spill = params.spill;
  return std::make_shared<RowCache>(options);
}

RowKernelParams KernelParamsOf(const OracleParams& params) {
  RowKernelParams kp;
  kp.sbp = params.sbp;
  kp.sbph_max_depth = params.sbph_max_depth;
  return kp;
}

}  // namespace

CompatibilityOracle::CompatibilityOracle(const SignedGraph& g, CompatKind kind,
                                         OracleParams params,
                                         std::shared_ptr<RowCache> cache)
    : CompatibilityOracle(g, kind, KernelForKind(kind), KernelParamsOf(params),
                          params, std::move(cache)) {}

CompatibilityOracle::CompatibilityOracle(const SignedGraph& g,
                                         CompatKind display_kind,
                                         RowKernelFn kernel,
                                         RowKernelParams kernel_params,
                                         OracleParams params,
                                         std::shared_ptr<RowCache> cache)
    : graph_(&g),
      kind_(display_kind),
      kernel_(kernel),
      kernel_params_(kernel_params),
      cache_(cache != nullptr ? std::move(cache) : PrivateCache(params)),
      key_base_(MakeKeyBase(&g, display_kind, kernel, kernel_params_)) {
  TFSN_CHECK(kernel_ != nullptr);
}

std::shared_ptr<const CompatibilityOracle::Row> CompatibilityOracle::FetchRow(
    NodeId q) {
  const uint64_t key = KeyFor(q);
  if (auto row = cache_->Get(key)) {
    // Fail fast on the one fingerprint hazard: a cache reused across graph
    // lifetimes where a dead graph's address was recycled (keys embed the
    // graph by address). Wrong-sized rows would otherwise read OOB.
    TFSN_CHECK_EQ(row->comp.size(), graph_->num_nodes());
    return row;
  }
  rows_computed_.fetch_add(1, std::memory_order_relaxed);
  return cache_->Insert(key, kernel_(*graph_, kernel_params_, q));
}

const CompatibilityOracle::Row& CompatibilityOracle::GetRow(NodeId q) {
  std::shared_ptr<const Row> row = FetchRow(q);
  const Row& ref = *row;
  // Pin so the returned reference survives eviction by concurrent sharers
  // (and the next kPinnedRows - 1 GetRow calls on this oracle).
  pins_[pin_cursor_] = std::move(row);
  pin_cursor_ = (pin_cursor_ + 1) % kPinnedRows;
  return ref;
}

std::shared_ptr<const CompatibilityOracle::Row>
CompatibilityOracle::GetRowShared(NodeId q) {
  return FetchRow(q);
}

bool CompatibilityOracle::Compatible(NodeId u, NodeId v) {
  if (u == v) return true;
  if (kind_ == CompatKind::kSBPH) {
    // Symmetric closure of the direction-dependent heuristic search.
    if (FetchRow(u)->comp[v] != 0) return true;
    return FetchRow(v)->comp[u] != 0;
  }
  return FetchRow(u)->comp[v] != 0;
}

uint32_t CompatibilityOracle::Distance(NodeId u, NodeId v) {
  if (u == v) return 0;
  if (kind_ == CompatKind::kSBPH) {
    return std::min(FetchRow(u)->dist[v], FetchRow(v)->dist[u]);
  }
  return FetchRow(u)->dist[v];
}

std::vector<std::shared_ptr<const CompatibilityOracle::Row>>
CompatibilityOracle::GetRows(std::span<const NodeId> sources,
                             uint32_t threads) {
  const uint32_t workers = ResolveThreads(threads);
  auto scratch = std::make_unique<MsBfsScratch[]>(workers);
  return GetRowsWith(sources, workers, scratch.get());
}

std::vector<std::shared_ptr<const CompatibilityOracle::Row>>
CompatibilityOracle::GetRowsWith(std::span<const NodeId> sources,
                                 uint32_t workers, MsBfsScratch* scratch) {
  std::vector<std::shared_ptr<const Row>> out(sources.size());
  std::vector<size_t> missed;
  for (size_t i = 0; i < sources.size(); ++i) {
    out[i] = cache_->Get(KeyFor(sources[i]));
    if (out[i] == nullptr) {
      missed.push_back(i);
    } else {
      TFSN_CHECK_EQ(out[i]->comp.size(), graph_->num_nodes());
    }
  }
  if (missed.empty()) return out;

  // Compute each distinct missing source exactly once.
  std::unordered_map<NodeId, size_t> first_index;
  std::vector<size_t> work;
  for (size_t i : missed) {
    if (first_index.try_emplace(sources[i], i).second) work.push_back(i);
  }
  // Relations the bit-parallel engine supports (ms_signed_bfs.h) go
  // through it when they use the stock kernel: the misses are split into
  // equal blocks of at most 64 sources, one traversal each — and into at
  // least one block per worker while blocks keep kMinBlockLanes sources, so
  // no worker idles on a 128-miss fetch. Each worker reuses one scratch
  // across its blocks. The threshold relation, SBP/SBPH and custom kernels
  // keep the scalar per-source path, and so does a lone miss.
  constexpr size_t kMinBlockLanes = 8;
  const bool batchable = kernel_ == KernelForKind(kind_) &&
                         MsBfsSupportsKind(kind_) && work.size() > 1;
  if (batchable) {
    const size_t misses = work.size();
    auto ceil_div = [](size_t a, size_t b) { return (a + b - 1) / b; };
    const size_t blocks =
        std::max(ceil_div(misses, kMsBfsBatchSize),
                 std::min<size_t>(workers, ceil_div(misses, kMinBlockLanes)));
    // Blocks are equal, so a static split over the workers balances.
    ParallelFor(blocks, workers, [&](uint32_t w, uint64_t first,
                                     uint64_t last) {
      const uint64_t overflow_before = scratch[w].overflow_lanes();
      std::vector<NodeId> block;
      std::vector<size_t> out_index;
      for (uint64_t b = first; b < last; ++b) {
        block.clear();
        out_index.clear();
        for (size_t j = b * misses / blocks; j < (b + 1) * misses / blocks;
             ++j) {
          const size_t i = work[j];
          const NodeId q = sources[i];
          // Re-probe (uncounted) before paying for the traversal: a
          // concurrent sharer may have published the row since the probe
          // pass recorded the miss.
          if (auto row = cache_->Get(KeyFor(q), /*count_miss=*/false)) {
            out[i] = std::move(row);
          } else {
            block.push_back(q);
            out_index.push_back(i);
          }
        }
        if (block.empty()) continue;
        std::vector<Row> rows =
            ComputeCompatRowBlock(*graph_, kind_, block, &scratch[w]);
        rows_computed_.fetch_add(block.size(), std::memory_order_relaxed);
        block_rows_.fetch_add(block.size(), std::memory_order_relaxed);
        for (size_t k = 0; k < block.size(); ++k) {
          out[out_index[k]] =
              cache_->Insert(KeyFor(block[k]), std::move(rows[k]));
        }
      }
      overflow_lanes_.fetch_add(
          scratch[w].overflow_lanes() - overflow_before,
          std::memory_order_relaxed);
    });
  } else {
    // Dynamic scheduling: per-row cost varies (SBP rows are far heavier
    // than plain BFS rows), and the kernels are pure, so workers only
    // contend on cache shard mutexes.
    ParallelForEach(work.size(), workers, [&](uint64_t w) {
      const size_t i = work[w];
      const NodeId q = sources[i];
      const uint64_t key = KeyFor(q);
      // Re-probe (uncounted: the probe pass recorded the miss) in case a
      // concurrent sharer published the row since.
      std::shared_ptr<const Row> row = cache_->Get(key, /*count_miss=*/false);
      if (row == nullptr) {
        rows_computed_.fetch_add(1, std::memory_order_relaxed);
        row = cache_->Insert(key, kernel_(*graph_, kernel_params_, q));
      }
      out[i] = std::move(row);
    });
  }
  // Duplicated sources share the row computed for their first occurrence
  // (re-probing the cache could miss again under eviction pressure).
  for (size_t i : missed) {
    if (out[i] == nullptr) out[i] = out[first_index.at(sources[i])];
  }
  return out;
}

void CompatibilityOracle::StreamRows(
    std::span<const NodeId> sources, uint32_t threads,
    const std::function<void(size_t, const Row&)>& consume, size_t batch) {
  TFSN_CHECK_GT(batch, size_t{0});
  // One scratch per worker for the whole stream: the block buffers are
  // mapped once, not once per batch.
  const uint32_t workers = ResolveThreads(threads);
  auto scratch = std::make_unique<MsBfsScratch[]>(workers);
  for (size_t off = 0; off < sources.size(); off += batch) {
    const size_t len = std::min(batch, sources.size() - off);
    auto rows = GetRowsWith(sources.subspan(off, len), workers, scratch.get());
    for (size_t i = 0; i < len; ++i) consume(off + i, *rows[i]);
    // `rows` goes out of scope here: the batch's pins are released before
    // the next fetch, bounding peak pinned memory.
  }
}

std::unique_ptr<CompatibilityOracle> MakeOracle(const SignedGraph& g,
                                                CompatKind kind,
                                                OracleParams params) {
  return std::make_unique<CompatibilityOracle>(g, kind, params, nullptr);
}

std::unique_ptr<CompatibilityOracle> MakeOracle(
    const SignedGraph& g, CompatKind kind, OracleParams params,
    std::shared_ptr<RowCache> cache) {
  return std::make_unique<CompatibilityOracle>(g, kind, params,
                                               std::move(cache));
}

}  // namespace tfsn
