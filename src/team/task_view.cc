#include "src/team/task_view.h"

#include <algorithm>
#include <bit>

#include "src/compat/ms_signed_bfs.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"

namespace tfsn {

void AppendSetBits(std::span<const uint64_t> mask, std::vector<uint32_t>* out) {
  for (size_t w = 0; w < mask.size(); ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      out->push_back(static_cast<uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
}

uint64_t CountSetBits(std::span<const uint64_t> mask) {
  uint64_t count = 0;
  for (uint64_t w : mask) count += static_cast<uint64_t>(std::popcount(w));
  return count;
}

std::vector<NodeId> HolderUniverse(const SkillAssignment& skills,
                                   std::span<const SkillId> task_skills) {
  std::vector<NodeId> universe;
  for (SkillId s : task_skills) {
    auto holders = skills.Holders(s);
    universe.insert(universe.end(), holders.begin(), holders.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  return universe;
}

uint32_t TaskCompatView::LocalOf(NodeId global) const {
  auto it = std::lower_bound(universe_.begin(), universe_.end(), global);
  if (it == universe_.end() || *it != global) return kNoLocalId;
  return static_cast<uint32_t>(it - universe_.begin());
}

size_t TaskCompatView::TaskSkillPos(SkillId skill) const {
  auto skills = task_.skills();
  auto it = std::lower_bound(skills.begin(), skills.end(), skill);
  TFSN_CHECK(it != skills.end() && *it == skill);
  return static_cast<size_t>(it - skills.begin());
}

TaskCompatView::~TaskCompatView() {
  for (uint32_t i = 0; i < m_; ++i) {
    delete[] dir_rows_[i].load(std::memory_order_relaxed);
    delete[] dist_rows_[i].load(std::memory_order_relaxed);
  }
}

size_t TaskCompatView::EstimateBytes(size_t m, size_t num_task_skills,
                                     bool sbph) {
  const size_t words = (m + 63) / 64;
  const size_t bit_rows = m * words * sizeof(uint64_t);
  return m * (sizeof(NodeId) + sizeof(std::atomic<uint64_t*>) +
              sizeof(std::atomic<uint32_t*>)) +
         num_task_skills * (words * sizeof(uint64_t) + sizeof(uint32_t)) +
         bit_rows + (sbph ? bit_rows + m * m * sizeof(uint32_t) : 0);
}

size_t TaskCompatView::bytes() const {
  size_t dir = 0, dist = 0;
  for (uint32_t i = 0; i < m_; ++i) {
    dir += dir_rows_[i].load(std::memory_order_acquire) != nullptr;
    dist += dist_rows_[i].load(std::memory_order_acquire) != nullptr;
  }
  return universe_.capacity() * sizeof(NodeId) +
         m_ * (sizeof(dir_rows_[0]) + sizeof(dist_rows_[0])) +
         (dir * words_ + pair_bits_.capacity() + holder_bits_.capacity()) *
             sizeof(uint64_t) +
         dist * m_ * sizeof(uint32_t) +
         holder_counts_.capacity() * sizeof(uint32_t);
}

std::shared_ptr<const CompatibilityOracle::Row> TaskCompatView::SourceRow(
    uint32_t local) const {
  // A cache hit when the build prewarmed the universe; otherwise (no
  // prewarm, or an eviction since) the kernel computes the row here —
  // pricier, but the values are identical. A cache-only view never
  // computes: an absent row comes back as nullptr and is counted.
  if (!cache_only_) return oracle_->GetRowShared(universe_[local]);
  auto row = oracle_->PeekRow(universe_[local]);
  if (row == nullptr) missed_rows_.fetch_add(1, std::memory_order_relaxed);
  return row;
}

const uint64_t* TaskCompatView::FillDirRow(
    uint32_t local, const CompatibilityOracle::Row* row) const {
  uint64_t* bits = new uint64_t[words_];
  if (row == nullptr) {
    std::fill(bits, bits + words_, uint64_t{0});
  } else {
    const uint8_t* comp_src = row->comp.data();
    const NodeId* uni = universe_.data();
    for (size_t w = 0; w < words_; ++w) {
      const size_t j_end = std::min<size_t>(m_, (w + 1) * 64);
      uint64_t word = 0;
      for (size_t j = w * 64; j < j_end; ++j) {
        word |= static_cast<uint64_t>(comp_src[uni[j]] != 0) << (j & 63);
      }
      bits[w] = word;
    }
  }
  dir_rows_[local].store(bits, std::memory_order_release);
  return bits;
}

const uint32_t* TaskCompatView::FillDistRow(
    uint32_t local, const CompatibilityOracle::Row* row) const {
  uint32_t* dist = new uint32_t[m_];
  if (row == nullptr) {
    std::fill(dist, dist + m_, kUnreachable);
  } else {
    row->dist.Gather(universe_, dist);
  }
  dist_rows_[local].store(dist, std::memory_order_release);
  return dist;
}

const uint64_t* TaskCompatView::MaterializeDirRow(uint32_t local) const {
  MutexLock lock(&row_locks_[local % kLockStripes]);
  if (const uint64_t* row = dir_rows_[local].load(std::memory_order_relaxed)) {
    return row;
  }
  return FillDirRow(local, SourceRow(local).get());
}

const uint32_t* TaskCompatView::MaterializeDistRow(uint32_t local) const {
  MutexLock lock(&row_locks_[local % kLockStripes]);
  if (const uint32_t* row = dist_rows_[local].load(std::memory_order_relaxed)) {
    return row;
  }
  return FillDistRow(local, SourceRow(local).get());
}

void TaskCompatView::BuildPairClosure() {
  pair_bits_.assign(static_cast<size_t>(m_) * words_, 0);
  std::vector<uint32_t> set;
  for (uint32_t i = 0; i < m_; ++i) {
    auto dir = DirRow(i);
    uint64_t* out = pair_bits_.data() + static_cast<size_t>(i) * words_;
    for (size_t w = 0; w < words_; ++w) out[w] |= dir[w];
    set.clear();
    AppendSetBits(dir, &set);
    for (uint32_t j : set) {
      pair_bits_[j * words_ + (i >> 6)] |= uint64_t{1} << (i & 63);
    }
  }
}

std::unique_ptr<TaskCompatView> TaskCompatView::Allocate(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, size_t max_bytes) {
  TFSN_CHECK(oracle != nullptr);
  auto task_skills = task.skills();
  const size_t m = universe.size();
  const size_t words = (m + 63) / 64;
  const bool sbph = oracle->kind() == CompatKind::kSBPH;
  if (EstimateBytes(m, task_skills.size(), sbph) > max_bytes) return nullptr;

  std::unique_ptr<TaskCompatView> view(new TaskCompatView());
  view->oracle_ = oracle;
  view->task_ = task;
  view->kind_ = oracle->kind();
  view->dir_rows_.reset(new std::atomic<uint64_t*>[m]());
  view->dist_rows_.reset(new std::atomic<uint32_t*>[m]());
  view->m_ = static_cast<uint32_t>(m);  // after the arrays the dtor walks
  view->words_ = words;
  view->universe_ = std::move(universe);

  view->holder_bits_.assign(task_skills.size() * words, 0);
  view->holder_counts_.assign(task_skills.size(), 0);
  for (size_t p = 0; p < task_skills.size(); ++p) {
    uint64_t* mask = view->holder_bits_.data() + p * words;
    auto holders = skills.Holders(task_skills[p]);
    for (NodeId h : holders) {
      const uint32_t local = view->LocalOf(h);
      TFSN_CHECK(local != kNoLocalId);
      mask[local >> 6] |= uint64_t{1} << (local & 63);
    }
    view->holder_counts_[p] = static_cast<uint32_t>(holders.size());
  }
  return view;
}

std::unique_ptr<TaskCompatView> TaskCompatView::Build(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, uint32_t threads, size_t max_bytes) {
  return BuildFromUniverse(oracle, skills, task,
                           HolderUniverse(skills, task.skills()), threads,
                           max_bytes);
}

std::unique_ptr<TaskCompatView> TaskCompatView::BuildFromUniverse(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, uint32_t threads,
    size_t max_bytes) {
  auto view = Allocate(oracle, skills, task, std::move(universe), max_bytes);
  if (view == nullptr) return nullptr;
  // Injected build failure: callers already treat nullptr as "use the
  // oracle directly", which is bit-identical.
  if (TFSN_FAULT_POINT("task_view.build_fail")) return nullptr;

  if (view->kind_ == CompatKind::kSBPH) {
    // SBPH pair semantics are the symmetric closure of the direction-
    // dependent heuristic rows (see CompatibilityOracle::Compatible),
    // which needs the transpose — so fill every dir row eagerly (on one
    // worker when prewarm is off) and build dir | dir^T once, keeping the
    // seed loop's AND-folds plain word operations.
    oracle->StreamRows(view->universe_, std::max<uint32_t>(threads, 1),
                       [&](size_t i, const CompatibilityOracle::Row& row) {
                         view->FillDirRow(static_cast<uint32_t>(i), &row);
                       });
    view->BuildPairClosure();
  } else if (threads > 0) {
    // Batched cache prewarm: each chunk's misses are computed in parallel
    // — 64-way bit-parallel where the relation allows, one full block per
    // thread — and published to the shared row cache, then the chunk's
    // pins are dropped before the next so peak memory stays at one batch
    // of full-length rows. The dense rows themselves fill lazily from
    // these cached rows.
    oracle->StreamRows(view->universe_, threads,
                       [](size_t, const CompatibilityOracle::Row&) {},
                       kMsBfsBatchSize * threads);
  }
  return view;
}

std::unique_ptr<TaskCompatView> TaskCompatView::BuildFromCachedRows(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, size_t max_bytes) {
  auto view = Allocate(oracle, skills, task, std::move(universe), max_bytes);
  if (view == nullptr) return nullptr;
  view->cache_only_ = true;
  // An unknown candidate admits nobody and reaches nobody, so teams formed
  // against the view only ever rely on pairs a real row confirmed: sound,
  // possibly suboptimal. SBPH's closure still needs every dir row (each
  // from the cache or pessimistic), exactly as the full build computes it.
  if (view->kind_ == CompatKind::kSBPH) view->BuildPairClosure();
  return view;
}

}  // namespace tfsn
