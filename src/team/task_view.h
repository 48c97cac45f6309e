// Task-local dense compatibility view.
//
// The greedy team former (Algorithm 2) only ever queries compatibility
// between holders of the task's skills — a working set of m ≪ n users. The
// oracle answers each of those queries with a striped-mutex hash lookup
// plus an n-length row dereference, which dominates the O(seeds × |team| ×
// |holders|) inner loop. TaskCompatView remaps the working set to dense
// local ids and materializes, once per task from batched oracle rows:
//
//   * an m×m bit-packed compatibility matrix (directional raw-row bits,
//     plus the symmetric closure for SBPH pair semantics),
//   * an m×m uint16 distance matrix (kUnreachable -> kDenseUnreachable),
//   * one m-bit holder mask per task skill.
//
// Build() batch-prewarms the row cache when given worker threads (so
// misses are computed in parallel, 64-way bit-parallel where the relation
// allows); with threads == 0 it fetches nothing up front. Either way the
// dense rows materialize lazily on first touch, because the greedy
// MinDistance loop only ever folds the rows of *team members* — a small
// subset of the universe — so most rows are never gathered, and a cold
// cache computes exactly the rows the loop reads. (SBPH comp bits are
// filled eagerly: its pair semantics need the transpose.)
//
// "Compatible with the whole team" then becomes an AND-fold of 64-bit
// words over team rows, and MinDistance scoring becomes dense uint16
// loads — no oracle round-trips inside the seed loop. Pair semantics
// (reflexivity, the SBPH symmetric closure, distance mins) replicate
// CompatibilityOracle exactly, so every consumer is bit-identical to the
// oracle path.
//
// Build() returns nullptr — and callers fall back to the oracle — only
// when the view would exceed its byte budget or the graph has too many
// nodes for uint16 distances. Every in-repo relation distance is a path
// length over (node, side) states, hence < 2·num_nodes; the build requires
// num_nodes < 2^15 so finite distances always fit. Custom kernels must
// respect the same bound (larger finite distances would saturate).

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/skills/skills.h"
#include "src/util/mutex.h"

namespace tfsn {

/// Sentinel local id for "no such node in the view".
inline constexpr uint32_t kNoLocalId = static_cast<uint32_t>(-1);

/// Tests bit `i` of a packed word span.
inline bool TestBit(std::span<const uint64_t> words, uint32_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

/// Appends the indices of the set bits of `mask` to `out`, ascending.
void AppendSetBits(std::span<const uint64_t> mask, std::vector<uint32_t>* out);

/// Number of set bits across `mask`.
uint64_t CountSetBits(std::span<const uint64_t> mask);

/// Sorted, deduplicated union of the holders of `task_skills` — the
/// candidate universe a task's view is built over. One definition shared
/// by the view build, the greedy former, and the serving-layer batch
/// scheduler, so footprint estimates never diverge from what Build()
/// materializes.
std::vector<NodeId> HolderUniverse(const SkillAssignment& skills,
                                   std::span<const SkillId> task_skills);

class TaskCompatView {
 public:
  /// Finite distances must fit below this sentinel; the build falls back
  /// (returns nullptr) otherwise.
  static constexpr uint16_t kDenseUnreachable = 0xFFFF;

  /// Default byte budget for one view (see bytes()).
  static constexpr size_t kDefaultMaxBytes = 512ull << 20;

  /// Materializes the view for `task`: the candidate universe is the union
  /// of holders of the task's skills. With `threads` > 0 the universe's
  /// rows are first prewarmed in batches through CompatibilityOracle::
  /// GetRows with that many workers (so misses are computed in parallel
  /// and land in the shared row cache); with 0 nothing is fetched up front
  /// and each row loads on first touch (SBPH's eager fill then runs on one
  /// worker). Returns nullptr when the dense matrices would exceed
  /// `max_bytes` or the graph is too large for uint16 distances (see file
  /// comment) — callers then use the oracle directly. The oracle must
  /// outlive the view (lazy rows fetch through it); all accessors are
  /// safe to share across threads.
  static std::unique_ptr<TaskCompatView> Build(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// As Build, but takes the already-computed candidate universe (sorted,
  /// deduplicated union of the task's skill holders) so callers that
  /// needed it anyway — e.g. the serving batch scheduler's footprint
  /// check — don't pay the concat/sort/dedup twice.
  static std::unique_ptr<TaskCompatView> BuildFromUniverse(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// Degraded-tier builder for deadline-pressed serving: materializes the
  /// whole view eagerly from rows already resident in the oracle's cache
  /// memory tier (CompatibilityOracle::PeekRow) — never computes a row,
  /// never reads the spill tier, so the cost is bounded by decodes. A
  /// universe row that is not cached is filled pessimistically: no comp
  /// bits, all distances unreachable. Teams formed against such a view
  /// are *sound* (every accepted pair was confirmed by a real cached row)
  /// but may differ from the exact answer — callers must mark responses
  /// degraded unless *complete was set true (every row was cached, making
  /// the view bit-identical to the full build). Returns nullptr under the
  /// same gates as BuildFromUniverse.
  static std::unique_ptr<TaskCompatView> BuildFromCachedRows(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, size_t max_bytes,
      bool* complete);

  /// Number of candidates (local ids are [0, size())).
  uint32_t size() const { return m_; }
  /// 64-bit words per bit row.
  size_t words() const { return words_; }
  /// The task the view was built for.
  const Task& task() const { return task_; }
  /// Relation the backing oracle implements.
  CompatKind kind() const { return kind_; }

  /// Local ids ascend with global ids (the universe is sorted), so scans
  /// over local ids visit candidates in the same order as oracle-path
  /// scans over sorted holder lists.
  NodeId GlobalOf(uint32_t local) const { return universe_[local]; }
  /// Local id of `global`, or kNoLocalId when not in the universe.
  uint32_t LocalOf(NodeId global) const;
  std::span<const NodeId> universe() const { return universe_; }

  /// Directional raw-row bits of `local`: bit v == (row(local).comp[v] != 0),
  /// exactly as CompatibilityOracle::GetRow exposes them (directional for
  /// SBPH). Used by kMostCompatible scoring and the exact MAX bound.
  /// Materializes on first touch (thread-safe, idempotent).
  std::span<const uint64_t> DirRow(uint32_t local) const {
    if (!dir_ready_[local].load(std::memory_order_acquire)) {
      MaterializeDirRow(local);
    }
    return {dir_bits_.get() + static_cast<size_t>(local) * words_, words_};
  }

  /// Pair-semantics bits of `local`: bit v == oracle->Compatible(local, v).
  /// Equals DirRow except for SBPH, where it is the symmetric closure
  /// (always materialized eagerly at build time).
  std::span<const uint64_t> PairRow(uint32_t local) const {
    if (pair_bits_.empty()) return DirRow(local);
    return {pair_bits_.data() + static_cast<size_t>(local) * words_, words_};
  }

  /// Directional dense distances of `local` (kDenseUnreachable sentinel).
  /// Rows materialize on first touch (thread-safe, idempotent); a touched
  /// row is a plain contiguous array thereafter.
  std::span<const uint16_t> DistRow(uint32_t local) const {
    if (!dist_ready_[local].load(std::memory_order_acquire)) {
      MaterializeDistRow(local);
    }
    return {dist_.get() + static_cast<size_t>(local) * m_, m_};
  }

  /// Same verdict as oracle->Compatible(GlobalOf(a), GlobalOf(b)).
  bool PairCompatible(uint32_t a, uint32_t b) const {
    if (a == b) return true;
    return TestBit(PairRow(a), b);
  }

  /// Same value as oracle->Distance(GlobalOf(a), GlobalOf(b)) — the uint16
  /// sentinel is widened back to kUnreachable (the mapping is
  /// order-preserving, so argmins match the oracle path bit for bit).
  uint32_t PairDistance(uint32_t a, uint32_t b) const {
    if (a == b) return 0;
    uint16_t d = DistRow(a)[b];
    if (kind_ == CompatKind::kSBPH) {
      d = std::min(d, DistRow(b)[a]);
    }
    return Widen(d);
  }

  /// Widens a dense distance cell to oracle distance semantics.
  static uint32_t Widen(uint16_t d) {
    return d == kDenseUnreachable ? kUnreachable : d;
  }

  /// Holder bits over the universe for task().skills()[task_skill_pos].
  std::span<const uint64_t> HolderMask(size_t task_skill_pos) const {
    return {holder_bits_.data() + task_skill_pos * words_, words_};
  }
  /// Holder count of that task skill (== SkillAssignment::Frequency).
  uint32_t HolderCount(size_t task_skill_pos) const {
    return holder_counts_[task_skill_pos];
  }
  /// Position of `skill` within task().skills() (which is sorted).
  size_t TaskSkillPos(SkillId skill) const;

  /// Bytes a view over `m` candidates with `num_task_skills` holder masks
  /// would allocate — the exact figure BuildFromUniverse checks against
  /// `max_bytes`, exposed so batch schedulers (src/serve) can cap a
  /// group's union footprint before paying for the build.
  static size_t EstimateBytes(size_t m, size_t num_task_skills, bool sbph);

  /// Actual footprint of the dense matrices and masks.
  size_t bytes() const;

 private:
  TaskCompatView() = default;

  /// Node-count gate, byte budget, allocation and holder masks shared by
  /// every builder; nullptr when a gate trips. Dense rows start unready.
  static std::unique_ptr<TaskCompatView> Allocate(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, size_t max_bytes);

  /// Gather the dense comp-bit / distance row of `local` from `row` (or,
  /// for nullptr, the pessimistic fill: no comp bits, all distances
  /// unreachable), then publish its ready flag. The one fill path of
  /// every builder and of the lazy materializers.
  void FillDirRow(uint32_t local, const CompatibilityOracle::Row* row) const;
  void FillDistRow(uint32_t local, const CompatibilityOracle::Row* row) const;

  /// Lazy first touch: fetch the oracle row of `local` and fill. Idempotent;
  /// serialized per striped lock (row_locks_[local % kLockStripes]) so
  /// concurrent seed workers never observe a half-written row. The stripe
  /// association is data-dependent, so it is outside what TFSN_GUARDED_BY
  /// can express — the protocol is documented on the members below
  /// instead.
  void MaterializeDirRow(uint32_t local) const;
  void MaterializeDistRow(uint32_t local) const;

  /// SBPH: pair_bits_ = dir | dir^T over fully filled dir rows.
  void BuildPairClosure();

  static constexpr size_t kLockStripes = 16;

  CompatibilityOracle* oracle_ = nullptr;  // for lazy rows
  Task task_;
  CompatKind kind_ = CompatKind::kNNE;
  uint32_t m_ = 0;
  size_t words_ = 0;
  std::vector<NodeId> universe_;     // sorted ascending
  std::vector<uint64_t> pair_bits_;  // SBPH only: dir | dir^T, eager
  /// m_ * words_ directional comp bits and m_ * m_ directional distances;
  /// row i is valid once its ready flag is set (deliberately
  /// uninitialized before that — no m^2 zeroing).
  ///
  /// Lock-free ordering contract (striped, so not TFSN-annotatable): row i
  /// of dir_bits_ / dist_ is written only by the thread holding
  /// row_locks_[i % kLockStripes] (or by the builder, before the view is
  /// shared), then published by a release store of 1 to the matching
  /// ready flag; readers (DirRow/DistRow) do an acquire load of the flag
  /// and touch the row bytes only after seeing 1, so the release/acquire
  /// pair makes the fully-written row visible. A reader
  /// that sees 0 falls into Materialize*, where the stripe lock serializes
  /// the double-checked recheck (relaxed load there is safe: the lock's
  /// ordering covers it).
  mutable std::unique_ptr<uint64_t[]> dir_bits_;
  mutable std::unique_ptr<uint16_t[]> dist_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> dir_ready_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> dist_ready_;
  mutable std::array<Mutex, kLockStripes> row_locks_;
  std::vector<uint64_t> holder_bits_;  // task size * words_
  std::vector<uint32_t> holder_counts_;
};

}  // namespace tfsn
