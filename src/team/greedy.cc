#include "src/team/greedy.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

#include "src/graph/bfs.h"
#include "src/team/cost.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace tfsn {

namespace {

constexpr uint64_t kInfiniteCost = std::numeric_limits<uint64_t>::max();

// Maps a team diameter to the kDiameter objective exactly as TeamCost
// does, so candidate evaluation computes the pairwise sweep once and
// derives the objective from it (instead of recomputing the full diameter
// a second time through TeamCost).
uint64_t ObjectiveFromDiameter(uint32_t diameter) {
  return diameter == kUnreachable ? kInfiniteCost : diameter;
}

}  // namespace

const char* SkillPolicyName(SkillPolicy p) {
  switch (p) {
    case SkillPolicy::kRarest: return "Rarest";
    case SkillPolicy::kLeastCompatible: return "LeastCompatible";
  }
  return "?";
}

const char* UserPolicyName(UserPolicy p) {
  switch (p) {
    case UserPolicy::kMinDistance: return "MinDistance";
    case UserPolicy::kMostCompatible: return "MostCompatible";
    case UserPolicy::kRandom: return "Random";
  }
  return "?";
}

SkillId SelectSkillByPolicy(SkillPolicy policy, const SkillAssignment& skills,
                            const SkillCompatibilityIndex* index,
                            const std::vector<SkillId>& uncovered) {
  TFSN_CHECK(!uncovered.empty());
  if (policy == SkillPolicy::kLeastCompatible) TFSN_CHECK(index != nullptr);
  SkillId best = uncovered[0];
  for (SkillId s : uncovered) {
    switch (policy) {
      case SkillPolicy::kRarest:
        if (skills.Frequency(s) < skills.Frequency(best)) best = s;
        break;
      case SkillPolicy::kLeastCompatible:
        if (index->Degree(s) < index->Degree(best)) best = s;
        break;
    }
  }
  return best;
}

std::vector<NodeId> GreedySeedSet(const SkillAssignment& skills,
                                  SkillId first_skill, uint32_t max_seeds,
                                  Rng* rng) {
  auto holders = skills.Holders(first_skill);
  std::vector<NodeId> seeds(holders.begin(), holders.end());
  if (max_seeds > 0 && seeds.size() > max_seeds) {
    TFSN_CHECK(rng != nullptr);
    std::vector<uint32_t> picks = rng->SampleWithoutReplacement(
        static_cast<uint32_t>(seeds.size()), max_seeds);
    std::sort(picks.begin(), picks.end());
    std::vector<NodeId> sampled;
    sampled.reserve(picks.size());
    for (uint32_t p : picks) sampled.push_back(seeds[p]);
    seeds.swap(sampled);
  }
  return seeds;
}

void ThinPoolEvenly(std::vector<NodeId>* pool, uint32_t cap) {
  if (cap == 0 || pool->size() <= cap) return;
  // Deterministic thinning: keep an evenly spaced subset.
  std::vector<NodeId> thin;
  thin.reserve(cap);
  double step = static_cast<double>(pool->size()) / cap;
  for (uint32_t i = 0; i < cap; ++i) {
    thin.push_back((*pool)[static_cast<size_t>(i * step)]);
  }
  pool->swap(thin);
}

GreedyTeamFormer::GreedyTeamFormer(CompatibilityOracle* oracle,
                                   const SkillAssignment& skills,
                                   const SkillCompatibilityIndex* index,
                                   GreedyParams params)
    : oracle_(oracle), skills_(skills), index_(index), params_(params) {
  TFSN_CHECK(oracle != nullptr);
  if (params_.skill_policy == SkillPolicy::kLeastCompatible) {
    TFSN_CHECK(index != nullptr);
  }
}

SkillId GreedyTeamFormer::SelectSkill(
    const std::vector<SkillId>& uncovered) const {
  return SelectSkillByPolicy(params_.skill_policy, skills_, index_, uncovered);
}

NodeId GreedyTeamFormer::SelectUser(SkillId skill,
                                    const std::vector<NodeId>& team,
                                    const std::vector<SkillId>& uncovered_after,
                                    Rng* rng) {
  auto holders = skills_.Holders(skill);
  // Collect holders compatible with the whole current team. Compatibility
  // tests stream the cached rows of the (few) team members, so this is
  // O(|team| * |holders|) row lookups.
  std::vector<NodeId> candidates;
  for (NodeId v : holders) {
    bool in_team = std::find(team.begin(), team.end(), v) != team.end();
    if (in_team) continue;
    bool ok = true;
    for (NodeId x : team) {
      if (!oracle_->Compatible(x, v)) {
        ok = false;
        break;
      }
    }
    if (ok) candidates.push_back(v);
  }
  if (candidates.empty()) return kInvalidNode;

  switch (params_.user_policy) {
    case UserPolicy::kMinDistance: {
      NodeId best = kInvalidNode;
      uint64_t best_score = ~0ULL;
      for (NodeId v : candidates) {
        uint32_t worst = 0;
        for (NodeId x : team) {
          uint32_t d = oracle_->Distance(x, v);
          worst = std::max(worst, d);
          if (worst >= best_score) break;
        }
        if (worst < best_score) {
          best_score = worst;
          best = v;
        }
      }
      return best;
    }
    case UserPolicy::kMostCompatible: {
      // Score each candidate by how many holders of the still-uncovered
      // skills it is compatible with (greedy for keeping the search alive).
      std::vector<NodeId> pool;
      for (SkillId s : uncovered_after) {
        auto hs = skills_.Holders(s);
        pool.insert(pool.end(), hs.begin(), hs.end());
      }
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      ThinPoolEvenly(&pool, params_.most_compatible_pool_cap);
      NodeId best = kInvalidNode;
      int64_t best_score = -1;
      for (NodeId v : candidates) {
        const auto& row = oracle_->GetRow(v);
        int64_t score = 0;
        for (NodeId w : pool) score += row.comp[w] != 0;
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      return best;
    }
    case UserPolicy::kRandom: {
      TFSN_CHECK(rng != nullptr);
      return candidates[rng->NextBounded(candidates.size())];
    }
  }
  return kInvalidNode;
}

uint32_t GreedyTeamFormer::SelectUserView(
    const TaskCompatView& view, SkillId skill,
    const std::vector<uint32_t>& team,
    const std::vector<SkillId>& uncovered_after, Rng* rng,
    ViewScratch* scratch) const {
  const size_t words = view.words();
  // "Compatible with the whole team" is an AND-fold of 64-bit words: the
  // holder mask of `skill` intersected with every team member's pair row,
  // minus the team itself. Bit order is global-id order, so the candidate
  // list matches the oracle path's holder scan exactly.
  auto holder_mask = view.HolderMask(view.TaskSkillPos(skill));
  scratch->cand_mask.assign(holder_mask.begin(), holder_mask.end());
  for (uint32_t x : team) {
    auto row = view.PairRow(x);
    for (size_t w = 0; w < words; ++w) scratch->cand_mask[w] &= row[w];
  }
  for (uint32_t x : team) {
    scratch->cand_mask[x >> 6] &= ~(uint64_t{1} << (x & 63));
  }
  scratch->candidates.clear();
  AppendSetBits(scratch->cand_mask, &scratch->candidates);
  if (scratch->candidates.empty()) return kNoLocalId;
  const auto& candidates = scratch->candidates;

  switch (params_.user_policy) {
    case UserPolicy::kMinDistance: {
      // Dense distance loads with the oracle loop's candidate-level early
      // break (a pure pruning: the partial max only ever loses a failing
      // comparison). First-strict-minimum in ascending candidate order —
      // the same winner as the oracle path.
      uint32_t best = kNoLocalId;
      uint64_t best_score = ~0ULL;
      for (uint32_t v : candidates) {
        uint32_t worst = 0;
        for (uint32_t x : team) {
          worst = std::max(worst, view.PairDistance(x, v));
          if (worst >= best_score) break;
        }
        if (worst < best_score) {
          best_score = worst;
          best = v;
        }
      }
      return best;
    }
    case UserPolicy::kMostCompatible: {
      // The future-holder pool is an OR of precomputed per-skill holder
      // masks — no per-step concatenation, sort, or dedup (the view owns
      // the holder universe). Thinning replicates the oracle path's
      // arithmetic; local-id order equals global-id order, so the thinned
      // subset is identical.
      scratch->pool_mask.assign(words, 0);
      for (SkillId t : uncovered_after) {
        auto mask = view.HolderMask(view.TaskSkillPos(t));
        for (size_t w = 0; w < words; ++w) scratch->pool_mask[w] |= mask[w];
      }
      const uint64_t pool_size = CountSetBits(scratch->pool_mask);
      if (params_.most_compatible_pool_cap > 0 &&
          pool_size > params_.most_compatible_pool_cap) {
        // Evenly spaced thinning by rank-select on the mask: the selected
        // ranks floor(i * step) are exactly the elements the oracle path
        // picks from its sorted pool vector, without materializing it.
        const uint32_t cap = params_.most_compatible_pool_cap;
        const double step = static_cast<double>(pool_size) / cap;
        scratch->pool.clear();
        uint32_t i = 0;
        uint64_t rank = 0;  // set bits before the current word
        for (size_t w = 0; w < words && i < cap; ++w) {
          uint64_t bits = scratch->pool_mask[w];
          const uint64_t count = static_cast<uint64_t>(std::popcount(bits));
          uint64_t consumed = 0;  // bits cleared from this word so far
          while (i < cap) {
            const uint64_t target = static_cast<uint64_t>(
                static_cast<uint32_t>(i) * step);
            if (target >= rank + count) break;
            // Drop set bits below the target rank, then take the lowest.
            for (; rank + consumed < target; ++consumed) bits &= bits - 1;
            scratch->pool.push_back(
                static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
            ++i;
          }
          rank += count;
        }
        std::fill(scratch->pool_mask.begin(), scratch->pool_mask.end(), 0);
        for (uint32_t v : scratch->pool) {
          scratch->pool_mask[v >> 6] |= uint64_t{1} << (v & 63);
        }
      }
      uint32_t best = kNoLocalId;
      int64_t best_score = -1;
      for (uint32_t v : candidates) {
        auto row = view.DirRow(v);
        int64_t score = 0;
        for (size_t w = 0; w < words; ++w) {
          score += std::popcount(row[w] & scratch->pool_mask[w]);
        }
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      return best;
    }
    case UserPolicy::kRandom: {
      TFSN_CHECK(rng != nullptr);
      return candidates[rng->NextBounded(candidates.size())];
    }
  }
  return kNoLocalId;
}

TeamResult GreedyTeamFormer::CompleteSeedOracle(const Task& task, NodeId seed,
                                                Rng* rng) {
  TeamResult candidate;
  std::vector<NodeId> team{seed};
  SkillCoverage coverage(task);
  coverage.Cover(skills_.SkillsOf(seed));
  while (!coverage.AllCovered()) {
    std::vector<SkillId> uncovered = coverage.Uncovered();
    SkillId s = SelectSkill(uncovered);  // line 8
    // Skills still uncovered after s is handled; used by kMostCompatible.
    std::vector<SkillId> rest;
    for (SkillId t : uncovered) {
      if (t != s) rest.push_back(t);
    }
    NodeId v = SelectUser(s, team, rest, rng);  // lines 9-10
    if (v == kInvalidNode) return candidate;
    team.push_back(v);
    coverage.Cover(skills_.SkillsOf(v));
  }
  candidate.found = true;
  std::sort(team.begin(), team.end());
  candidate.cost = TeamDiameter(oracle_, team);
  candidate.objective = params_.cost_kind == CostKind::kDiameter
                            ? ObjectiveFromDiameter(candidate.cost)
                            : TeamCost(oracle_, team, params_.cost_kind);
  candidate.members = std::move(team);
  return candidate;
}

TeamResult GreedyTeamFormer::CompleteSeedView(const TaskCompatView& view,
                                              const Task& task,
                                              uint32_t seed_local,
                                              Rng* rng) const {
  TeamResult candidate;
  ViewScratch scratch;
  std::vector<uint32_t> team{seed_local};
  SkillCoverage coverage(task);
  coverage.Cover(skills_.SkillsOf(view.GlobalOf(seed_local)));
  while (!coverage.AllCovered()) {
    std::vector<SkillId> uncovered = coverage.Uncovered();
    SkillId s = SelectSkill(uncovered);
    std::vector<SkillId> rest;
    for (SkillId t : uncovered) {
      if (t != s) rest.push_back(t);
    }
    const uint32_t v = SelectUserView(view, s, team, rest, rng, &scratch);
    if (v == kNoLocalId) return candidate;
    team.push_back(v);
    coverage.Cover(skills_.SkillsOf(view.GlobalOf(v)));
  }
  candidate.found = true;
  // Local ids ascend with global ids, so this sort yields the same member
  // order as the oracle path's sort of global ids.
  std::sort(team.begin(), team.end());
  candidate.cost = TeamDiameter(view, team);
  candidate.objective = params_.cost_kind == CostKind::kDiameter
                            ? ObjectiveFromDiameter(candidate.cost)
                            : TeamCost(view, team, params_.cost_kind);
  candidate.members.reserve(team.size());
  for (uint32_t local : team) candidate.members.push_back(view.GlobalOf(local));
  return candidate;
}

// Runs the seed loop of Algorithm 2 and collects every successful candidate
// team into `sink` (members sorted, costs evaluated). Returns (seeds tried,
// seeds succeeded).
std::pair<uint32_t, uint32_t> GreedyTeamFormer::EnumerateCandidates(
    const Task& task, Rng* rng, const TaskCompatView* shared_view,
    std::vector<TeamResult>* sink) {
  // Initial skill (line 3) over the whole task.
  std::vector<SkillId> all_skills(task.skills().begin(), task.skills().end());
  SkillId first = SelectSkill(all_skills);

  // Seed set: holders of the initial skill, optionally capped by sampling.
  std::vector<NodeId> seeds =
      GreedySeedSet(skills_, first, params_.max_seeds, rng);

  // Dense path: build the task-local view once (with prefetch on, its
  // build doubles as the cache prewarm). The oracle loop runs only when
  // pinned (kOracle) or when the view cannot be built (byte budget or an
  // injected fault); either way the results are bit-identical. A
  // caller-supplied view already paid for all of that.
  std::unique_ptr<TaskCompatView> owned_view;
  const TaskCompatView* view = shared_view;
  if (view == nullptr && params_.eval_path == GreedyEvalPath::kView) {
    owned_view = TaskCompatView::Build(oracle_, skills_, task,
                                       params_.prefetch_threads,
                                       params_.view_max_bytes);
    view = owned_view.get();
    if (view == nullptr) ++oracle_fallbacks_;
  }

  // Only the RANDOM user policy consumes randomness inside the loop. Fork
  // one stream per seed, in seed order, so results are bit-identical for
  // every seed_threads setting and for both evaluation paths. (Non-random
  // policies leave the caller's stream untouched, exactly as before.)
  std::vector<Rng> seed_rngs;
  if (params_.user_policy == UserPolicy::kRandom) {
    TFSN_CHECK(rng != nullptr);
    seed_rngs.reserve(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i) seed_rngs.push_back(rng->Fork());
  }
  auto seed_rng_at = [&](size_t i) -> Rng* {
    return seed_rngs.empty() ? nullptr : &seed_rngs[i];
  };

  // Per-seed result slots merged in seed order: a deterministic reduction
  // no matter how many workers ran the loop.
  std::vector<TeamResult> slots(seeds.size());
  if (view != nullptr) {
    const TaskCompatView& v = *view;
    TFSN_DCHECK(v.kind() == oracle_->kind());
    const uint32_t threads =
        params_.seed_threads == 1 ? 1 : ResolveThreads(params_.seed_threads);
    ParallelForEach(seeds.size(), threads, [&](uint64_t i) {
      const uint32_t seed_local = v.LocalOf(seeds[i]);
      // Every holder of a task skill is in the view universe — also when
      // the view was supplied by a caller for a superset task.
      TFSN_CHECK(seed_local != kNoLocalId);
      slots[i] = CompleteSeedView(v, task, seed_local, seed_rng_at(i));
    });
  } else {
    // One oracle instance is not thread-safe (GetRow pins rows into
    // instance-local state), so the fallback path stays serial.
    for (size_t i = 0; i < seeds.size(); ++i) {
      slots[i] = CompleteSeedOracle(task, seeds[i], seed_rng_at(i));
    }
  }

  uint32_t succeeded = 0;
  for (TeamResult& slot : slots) {
    if (!slot.found) continue;
    ++succeeded;
    sink->push_back(std::move(slot));
  }
  return {static_cast<uint32_t>(seeds.size()), succeeded};
}

TeamResult GreedyTeamFormer::Form(const Task& task, Rng* rng) {
  return FormImpl(task, rng, nullptr);
}

TeamResult GreedyTeamFormer::FormWithView(const TaskCompatView& view,
                                          const Task& task, Rng* rng) {
  return FormImpl(task, rng, &view);
}

TeamResult GreedyTeamFormer::FormImpl(const Task& task, Rng* rng,
                                      const TaskCompatView* shared_view) {
  TeamResult result;
  if (task.empty()) {
    result.found = true;
    return result;
  }
  std::vector<TeamResult> candidates;
  auto [tried, succeeded] =
      EnumerateCandidates(task, rng, shared_view, &candidates);
  result.seeds_tried = tried;
  result.seeds_succeeded = succeeded;
  const TeamResult* best = nullptr;
  for (const TeamResult& c : candidates) {
    if (best == nullptr || c.objective < best->objective ||
        (c.objective == best->objective &&
         c.members.size() < best->members.size())) {
      best = &c;
    }
  }
  if (best != nullptr) {
    result.found = true;
    result.members = best->members;
    result.cost = best->cost;
    result.objective = best->objective;
  }
  return result;
}

std::vector<TeamResult> GreedyTeamFormer::FormTopK(const Task& task,
                                                   uint32_t k, Rng* rng) {
  std::vector<TeamResult> candidates;
  if (task.empty() || k == 0) return candidates;
  EnumerateCandidates(task, rng, nullptr, &candidates);
  std::sort(candidates.begin(), candidates.end(),
            [](const TeamResult& a, const TeamResult& b) {
              if (a.objective != b.objective) return a.objective < b.objective;
              if (a.members.size() != b.members.size()) {
                return a.members.size() < b.members.size();
              }
              return a.members < b.members;
            });
  // Deduplicate identical member sets (different seeds can converge).
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const TeamResult& a, const TeamResult& b) {
                                 return a.members == b.members;
                               }),
                   candidates.end());
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

bool TaskSkillsCompatible(const SkillCompatibilityIndex& index,
                          const Task& task) {
  auto skills = task.skills();
  for (size_t i = 0; i < skills.size(); ++i) {
    for (size_t j = i + 1; j < skills.size(); ++j) {
      if (!index.SkillsCompatible(skills[i], skills[j])) return false;
    }
  }
  return true;
}

bool TaskSkillsCompatibleExact(CompatibilityOracle* oracle,
                               const SkillAssignment& skills,
                               const Task& task) {
  auto task_skills = task.skills();
  for (size_t i = 0; i < task_skills.size(); ++i) {
    for (size_t j = i + 1; j < task_skills.size(); ++j) {
      auto hs = skills.Holders(task_skills[i]);
      auto ht = skills.Holders(task_skills[j]);
      if (hs.empty() || ht.empty()) return false;
      // Fetch rows from the smaller side.
      if (ht.size() < hs.size()) std::swap(hs, ht);
      bool found = false;
      for (NodeId u : hs) {
        const auto& row = oracle->GetRow(u);
        for (NodeId v : ht) {
          // comp[u] itself covers the self-compatibility case (u == v).
          if (row.comp[v]) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
  }
  return true;
}

bool TaskSkillsCompatibleExact(const TaskCompatView& view) {
  auto task_skills = view.task().skills();
  const size_t words = view.words();
  std::vector<uint32_t> side;
  for (size_t i = 0; i < task_skills.size(); ++i) {
    for (size_t j = i + 1; j < task_skills.size(); ++j) {
      size_t pi = i, pj = j;
      if (view.HolderCount(pi) == 0 || view.HolderCount(pj) == 0) return false;
      // Same smaller-side rule as the oracle overload (it decides which
      // direction the SBPH raw rows are consulted in).
      if (view.HolderCount(pj) < view.HolderCount(pi)) std::swap(pi, pj);
      auto target_mask = view.HolderMask(pj);
      side.clear();
      AppendSetBits(view.HolderMask(pi), &side);
      bool found = false;
      for (uint32_t u : side) {
        auto row = view.DirRow(u);
        for (size_t w = 0; w < words; ++w) {
          // Bit u of target_mask covers the self-compatibility case.
          if ((row[w] & target_mask[w]) != 0) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace tfsn
