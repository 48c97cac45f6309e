// Task-local dense compatibility view.
//
// The greedy team former (Algorithm 2) only ever queries compatibility
// between holders of the task's skills — a working set of m ≪ n users. The
// oracle answers each of those queries with a striped-mutex hash lookup
// plus an n-length row dereference, which dominates the O(seeds × |team| ×
// |holders|) inner loop. TaskCompatView remaps the working set to dense
// local ids and serves, per local id:
//
//   * a bit-packed m-bit compatibility row (directional raw-row bits, plus
//     the symmetric closure for SBPH pair semantics),
//   * an m-cell uint32 distance row holding the oracle's values unchanged
//     (kUnreachable included),
//   * and, per task skill, one m-bit holder mask.
//
// Each dense row is allocated and filled on first touch: the greedy
// MinDistance loop only ever folds the rows of *team members* — a small
// subset of the universe — so most rows are never gathered, and a cold
// cache computes exactly the rows the loop reads. (SBPH comp bits are
// filled eagerly: its pair semantics need the transpose.) "Compatible
// with the whole team" then becomes an AND-fold of 64-bit words over team
// rows, and MinDistance scoring becomes dense loads — no oracle
// round-trips inside the seed loop. Pair semantics (reflexivity, the SBPH
// symmetric closure, distance mins) replicate CompatibilityOracle
// exactly, so every consumer is bit-identical to the oracle path, on
// graphs of any size.

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
  /// Default byte budget for one view (see EstimateBytes()).
  static constexpr size_t kDefaultMaxBytes = 512ull << 20;

  ~TaskCompatView();
  TaskCompatView(const TaskCompatView&) = delete;
  TaskCompatView& operator=(const TaskCompatView&) = delete;

  /// Builds the view for `task`: the candidate universe is the union of
  /// holders of the task's skills. With `threads` > 0 the universe's rows
  /// are first prewarmed in batches through CompatibilityOracle::GetRows
  /// with that many workers (so misses are computed in parallel and land
  /// in the shared row cache); with 0 nothing is fetched up front and each
  /// row loads on first touch (SBPH's eager fill then runs on one worker).
  /// Returns nullptr when EstimateBytes() exceeds `max_bytes` — callers
  /// then use the oracle directly. The oracle must outlive the view (lazy
  /// rows fetch through it); all accessors are safe to share across
  /// threads.
  static std::unique_ptr<TaskCompatView> Build(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// As Build, but takes the already-computed candidate universe (sorted,
  /// deduplicated union of the task's skill holders) so callers that
  /// needed it anyway don't pay the concat/sort/dedup twice.
  static std::unique_ptr<TaskCompatView> BuildFromUniverse(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// Degraded-tier builder for deadline-pressed serving: the same lazy
  /// view, but its rows come only from the oracle cache's memory tier
  /// (CompatibilityOracle::PeekRow) — it never computes a row and never
  /// reads the spill tier, so the cost is bounded by decodes. A row that
  /// is not resident fills pessimistically (no comp bits, all distances
  /// unreachable) and counts in missed_rows(). Teams formed against such a
  /// view are *sound* (every accepted pair was confirmed by a real cached
  /// row); while missed_rows() stays 0 every row read was real, so the
  /// outcome is bit-identical to the full build. Returns nullptr under the
  /// same budget as BuildFromUniverse.
  static std::unique_ptr<TaskCompatView> BuildFromCachedRows(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, size_t max_bytes);

  /// Number of candidates (local ids are [0, size())).
  uint32_t size() const { return m_; }
  /// 64-bit words per bit row.
  size_t words() const { return words_; }
  /// The task the view was built for.
  const Task& task() const { return task_; }
  /// Relation the backing oracle implements.
  CompatKind kind() const { return kind_; }
  /// Rows filled pessimistically so far because a cache-only view found
  /// them absent (BuildFromCachedRows); always 0 for the other builders.
  uint64_t missed_rows() const {
    return missed_rows_.load(std::memory_order_relaxed);
  }

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
  /// Filled on first touch (thread-safe, idempotent).
  std::span<const uint64_t> DirRow(uint32_t local) const {
    const uint64_t* row = dir_rows_[local].load(std::memory_order_acquire);
    if (row == nullptr) row = MaterializeDirRow(local);
    return {row, words_};
  }

  /// Pair-semantics bits of `local`: bit v == oracle->Compatible(local, v).
  /// Equals DirRow except for SBPH, where it is the symmetric closure
  /// (always built eagerly).
  std::span<const uint64_t> PairRow(uint32_t local) const {
    if (pair_bits_.empty()) return DirRow(local);
    return {pair_bits_.data() + static_cast<size_t>(local) * words_, words_};
  }

  /// Directional distances of `local`, exactly the oracle row's values
  /// (kUnreachable included). Filled on first touch (thread-safe,
  /// idempotent); a touched row is a plain contiguous array thereafter.
  std::span<const uint32_t> DistRow(uint32_t local) const {
    const uint32_t* row = dist_rows_[local].load(std::memory_order_acquire);
    if (row == nullptr) row = MaterializeDistRow(local);
    return {row, m_};
  }

  /// Same verdict as oracle->Compatible(GlobalOf(a), GlobalOf(b)).
  bool PairCompatible(uint32_t a, uint32_t b) const {
    if (a == b) return true;
    return TestBit(PairRow(a), b);
  }

  /// Same value as oracle->Distance(GlobalOf(a), GlobalOf(b)).
  uint32_t PairDistance(uint32_t a, uint32_t b) const {
    if (a == b) return 0;
    const uint32_t d = DistRow(a)[b];
    return kind_ == CompatKind::kSBPH ? std::min(d, DistRow(b)[a]) : d;
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
  /// can commit — the figure the builders check against `max_bytes`,
  /// exposed so callers can check a footprint before paying for the
  /// build. Counts the up-front arrays,
  /// the holder masks and one comp-bit row per candidate; SBPH adds its
  /// eager closure and every candidate's distance row (its MinDistance
  /// reads both directions). Other relations fill distance rows for team
  /// members only, which the estimate leaves out.
  static size_t EstimateBytes(size_t m, size_t num_task_skills, bool sbph);

  /// Bytes committed so far: the up-front arrays and masks plus every row
  /// filled until now.
  size_t bytes() const;

 private:
  TaskCompatView() = default;

  /// Byte budget, allocation and holder masks shared by every builder;
  /// nullptr when the budget trips. Every dense row starts unfilled.
  static std::unique_ptr<TaskCompatView> Allocate(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, size_t max_bytes);

  /// The oracle row behind `local` for a lazy fill: fetched (or computed)
  /// through the oracle, or — for a cache-only view — the resident row or
  /// nullptr, counted in missed_rows_.
  std::shared_ptr<const CompatibilityOracle::Row> SourceRow(
      uint32_t local) const;

  /// Allocate the comp-bit / distance row of `local`, gather it from `row`
  /// (or, for nullptr, the pessimistic fill: no comp bits, all distances
  /// unreachable), then publish it. The one fill path of every builder and
  /// of the lazy materializers.
  const uint64_t* FillDirRow(uint32_t local,
                             const CompatibilityOracle::Row* row) const;
  const uint32_t* FillDistRow(uint32_t local,
                              const CompatibilityOracle::Row* row) const;

  /// Lazy first touch: fill from SourceRow(local). Idempotent; serialized
  /// per striped lock (row_locks_[local % kLockStripes]) so concurrent
  /// seed workers never fill a row twice. The stripe association is
  /// data-dependent, so it is outside what TFSN_GUARDED_BY can express —
  /// the protocol is documented on the members below instead.
  const uint64_t* MaterializeDirRow(uint32_t local) const;
  const uint32_t* MaterializeDistRow(uint32_t local) const;

  /// SBPH: pair_bits_ = dir | dir^T over fully filled dir rows.
  void BuildPairClosure();

  static constexpr size_t kLockStripes = 16;

  CompatibilityOracle* oracle_ = nullptr;  // for lazy rows
  bool cache_only_ = false;                // rows via PeekRow only
  Task task_;
  CompatKind kind_ = CompatKind::kNNE;
  uint32_t m_ = 0;
  size_t words_ = 0;
  std::vector<NodeId> universe_;     // sorted ascending
  std::vector<uint64_t> pair_bits_;  // SBPH only: dir | dir^T, eager
  /// One owning pointer per local id to its words_ comp bits / m_
  /// distances; nullptr until the row is filled, freed by the destructor.
  ///
  /// Publication contract (striped, so not TFSN-annotatable): row i is
  /// allocated and written only by the thread holding
  /// row_locks_[i % kLockStripes] (or by the builder, before the view is
  /// shared), then published by a release store of its pointer; readers
  /// (DirRow/DistRow) do an acquire load and touch the row bytes only
  /// through a non-null pointer, so the release/acquire pair makes the
  /// fully written row visible. A reader that sees nullptr falls into
  /// Materialize*, where the stripe lock serializes the double-checked
  /// recheck (a relaxed load there is safe: the lock's ordering covers
  /// it). Published rows are never rewritten.
  mutable std::unique_ptr<std::atomic<uint64_t*>[]> dir_rows_;
  mutable std::unique_ptr<std::atomic<uint32_t*>[]> dist_rows_;
  mutable std::array<Mutex, kLockStripes> row_locks_;
  mutable std::atomic<uint64_t> missed_rows_{0};
  std::vector<uint64_t> holder_bits_;  // task size * words_
  std::vector<uint32_t> holder_counts_;
};

}  // namespace tfsn
