// Algorithm 2 of the paper: generic greedy team formation with pluggable
// skill-selection and user-selection policies.
//
// The algorithm seeds a candidate team with each holder of an initial skill
// and then repeatedly (a) picks an uncovered skill by the skill policy and
// (b) adds a holder of that skill compatible with every current member,
// chosen by the user policy — until the task is covered or no compatible
// holder exists. The best-cost candidate team over all seeds is returned.
//
// Named configurations from the paper's evaluation:
//   LCMD   — least-compatible skill first, minimum-distance user.
//   LCMC   — least-compatible skill first, most-compatible user.
//   RANDOM — least-compatible skill first, uniformly random compatible user.
// plus the rarest-skill variants of [Lappas et al. 2009].

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/compat/skill_index.h"
#include "src/skills/skills.h"
#include "src/team/cost.h"
#include "src/team/task_view.h"
#include "src/util/rng.h"

namespace tfsn {

/// Policy for "Select skill" (lines 3 and 8 of Algorithm 2).
enum class SkillPolicy : uint8_t {
  /// Fewest holders first, as in the unsigned problem [9].
  kRarest,
  /// Smallest compatibility degree cd(s) first (needs a
  /// SkillCompatibilityIndex).
  kLeastCompatible,
};

/// Policy for "Select user" (line 9 of Algorithm 2).
enum class UserPolicy : uint8_t {
  /// Minimizes the maximum distance to the current team (i.e. the team
  /// diameter after insertion).
  kMinDistance,
  /// Maximizes the number of compatible users among the holders of the
  /// still-uncovered skills (greedy for feasibility).
  kMostCompatible,
  /// Uniformly random compatible holder (the paper's RANDOM baseline).
  kRandom,
};

const char* SkillPolicyName(SkillPolicy p);
const char* UserPolicyName(UserPolicy p);

/// "Select skill" (lines 3 and 8 of Algorithm 2) as a free function: the
/// first skill of `uncovered` (ascending) with the strictly smallest
/// priority — holder frequency (kRarest) or index degree
/// (kLeastCompatible; `index` must be non-null then). The sharded
/// coordinator (src/dist/) replicates the single-node skill choice through
/// this exact function; `uncovered` must be non-empty.
SkillId SelectSkillByPolicy(SkillPolicy policy, const SkillAssignment& skills,
                            const SkillCompatibilityIndex* index,
                            const std::vector<SkillId>& uncovered);

/// The seed set of Algorithm 2's outer loop: holders of `first_skill`
/// (ascending), sampled without replacement down to `max_seeds` when the
/// cap is exceeded (0 = no cap; `rng` must be non-null when sampling
/// happens — it consumes exactly one SampleWithoutReplacement draw then).
/// Shared by the single-node and sharded formers so both consume the same
/// rng stream.
std::vector<NodeId> GreedySeedSet(const SkillAssignment& skills,
                                  SkillId first_skill, uint32_t max_seeds,
                                  Rng* rng);

/// kMostCompatible's deterministic pool thinning: when `pool` (sorted,
/// deduplicated) exceeds `cap` > 0, keeps the evenly spaced subset at
/// ranks floor(i * |pool| / cap). Exposed so the sharded workers thin
/// with bit-identical arithmetic.
void ThinPoolEvenly(std::vector<NodeId>* pool, uint32_t cap);

/// How Form/FormTopK evaluate compatibility inside the seed loop. Both
/// paths return bit-identical results.
enum class GreedyEvalPath : uint8_t {
  /// The task-local dense view (task_view.h), for graphs of any size.
  /// Falls back to the oracle loop only when the view cannot be built:
  /// over `view_max_bytes` or an injected build failure
  /// (GreedyTeamFormer::oracle_fallbacks() counts these).
  kView,
  /// Consume the oracle pair-by-pair: the reference path the view is
  /// tested against.
  kOracle,
  /// Former name of kView, kept for existing callers.
  kAuto = kView,
};

/// Tuning for the greedy former.
struct GreedyParams {
  SkillPolicy skill_policy = SkillPolicy::kLeastCompatible;
  UserPolicy user_policy = UserPolicy::kMinDistance;
  /// Cap on seed users tried for the initial skill (0 = all holders). The
  /// paper iterates all holders; the cap keeps dense skills tractable.
  uint32_t max_seeds = 0;
  /// kMostCompatible only: cap on future-holder candidates examined per
  /// compatibility count (0 = all).
  uint32_t most_compatible_pool_cap = 256;
  /// Workers for the view build's cache prewarm: when nonzero, Form/
  /// FormTopK first batch-fetch the oracle rows of every holder of the
  /// task's skills (the row working set of the greedy search) via
  /// CompatibilityOracle::StreamRows — warming the shared row cache in
  /// parallel instead of computing rows one by one inside the seed loop.
  /// 0 disables prefetching: rows then load on first use, so a cold cache
  /// computes only the rows the seed loop reads. The oracle loop never
  /// prefetches. Results are identical either way.
  uint32_t prefetch_threads = 0;
  /// Workers for the seed loop (each seed's greedy completion is
  /// independent and the view is immutable). 1 = serial, 0 = hardware
  /// concurrency / TFSN_THREADS. Results are bit-identical for every
  /// setting: per-seed outcomes land in per-seed slots merged in seed
  /// order, and the RANDOM policy draws from per-seed forked streams. The
  /// oracle loop (kOracle or the fallback) always runs serially (one
  /// oracle instance is not thread-safe).
  uint32_t seed_threads = 1;
  /// Evaluation path (see GreedyEvalPath).
  GreedyEvalPath eval_path = GreedyEvalPath::kView;
  /// Byte budget for the task-local dense view, checked against
  /// TaskCompatView::EstimateBytes: ~1 bit per candidate pair (SBPH: 2
  /// bits plus 4 bytes). Oversized tasks fall back to the oracle.
  size_t view_max_bytes = TaskCompatView::kDefaultMaxBytes;
  /// Objective used to pick the best candidate team across seeds (the
  /// paper uses the diameter). The kMinDistance user policy always greedily
  /// bounds the diameter; this only changes the final argmin.
  CostKind cost_kind = CostKind::kDiameter;
};

/// Outcome of one team-formation run.
struct TeamResult {
  /// True when a team covering the task with all-pairs compatibility was
  /// found.
  bool found = false;
  /// Team members (sorted by id) when found.
  std::vector<NodeId> members;
  /// Cost(X): max pairwise relation distance; kUnreachable when some pair
  /// has no finite relation distance.
  uint32_t cost = 0;
  /// Value of the configured cost objective (equals `cost` for kDiameter).
  uint64_t objective = 0;
  /// Number of seed users attempted.
  uint32_t seeds_tried = 0;
  /// Seeds whose greedy completion succeeded.
  uint32_t seeds_succeeded = 0;
};

/// Greedy team former bound to one (graph, skills, relation) triple.
class GreedyTeamFormer {
 public:
  /// `index` is required when any policy is kLeastCompatible or when using
  /// MAX-bound helpers; may be nullptr otherwise. All referees must outlive
  /// the former.
  GreedyTeamFormer(CompatibilityOracle* oracle, const SkillAssignment& skills,
                   const SkillCompatibilityIndex* index, GreedyParams params);

  /// Runs Algorithm 2 on `task`. `rng` drives seed sampling and the RANDOM
  /// user policy (must be non-null when either is in play).
  TeamResult Form(const Task& task, Rng* rng);

  /// Like Form but returns up to `k` *distinct* candidate teams (one per
  /// successful seed), sorted by the configured cost objective ascending —
  /// top-k team enumeration in the spirit of Kargar & An (CIKM'11).
  std::vector<TeamResult> FormTopK(const Task& task, uint32_t k, Rng* rng);

  /// Forms a team for `task` evaluating against a caller-supplied view
  /// whose task skills are a superset of `task`'s (and that was built over
  /// this former's oracle and skills). The serving layer's cache-only
  /// tier runs a request against a view it built itself; because the
  /// greedy loop only ever consults the view through the task's own
  /// holder masks and pair rows — whose bits are global-graph properties,
  /// ordered by global id in every universe — the result is bit-identical
  /// to Form() on the same task for every policy and relation, including
  /// the rng stream consumed. The view's extra candidates are never
  /// touched.
  TeamResult FormWithView(const TaskCompatView& view, const Task& task,
                          Rng* rng);

  const GreedyParams& params() const { return params_; }

  /// Form/FormTopK calls on the kView path that ran the oracle loop
  /// because the view build returned nullptr (see GreedyEvalPath::kView).
  uint64_t oracle_fallbacks() const { return oracle_fallbacks_; }

 private:
  /// Per-seed scratch buffers for the view path, reused across greedy
  /// steps of one seed (each worker owns its own instance).
  struct ViewScratch {
    std::vector<uint64_t> cand_mask;
    std::vector<uint64_t> pool_mask;
    std::vector<uint32_t> candidates;
    std::vector<uint32_t> pool;
  };

  /// Seed loop shared by Form/FormTopK/FormWithView. When `shared_view`
  /// is non-null it is used as-is (no build, no prefetch); its task must
  /// cover `task`'s skills.
  std::pair<uint32_t, uint32_t> EnumerateCandidates(
      const Task& task, Rng* rng, const TaskCompatView* shared_view,
      std::vector<TeamResult>* sink);

  /// Common body of Form and FormWithView.
  TeamResult FormImpl(const Task& task, Rng* rng,
                      const TaskCompatView* shared_view);

  /// Orders `skills` by the configured skill policy (ascending priority:
  /// element 0 is picked first).
  SkillId SelectSkill(const std::vector<SkillId>& uncovered) const;

  /// Picks a holder of `skill` compatible with all of `team`, or
  /// kInvalidNode. Candidates already in the team are skipped (they cannot
  /// hold the skill — it is uncovered — but guard anyway).
  NodeId SelectUser(SkillId skill, const std::vector<NodeId>& team,
                    const std::vector<SkillId>& uncovered_after, Rng* rng);

  /// View-path SelectUser over local ids; bit-identical selection.
  uint32_t SelectUserView(const TaskCompatView& view, SkillId skill,
                          const std::vector<uint32_t>& team,
                          const std::vector<SkillId>& uncovered_after,
                          Rng* rng, ViewScratch* scratch) const;

  /// Greedy completion of one seed against the oracle (serial reference
  /// path). Returns the evaluated candidate team or found == false.
  TeamResult CompleteSeedOracle(const Task& task, NodeId seed, Rng* rng);

  /// Greedy completion of one seed against the dense view; thread-safe
  /// (const view, const indexes, per-call scratch).
  TeamResult CompleteSeedView(const TaskCompatView& view, const Task& task,
                              uint32_t seed_local, Rng* rng) const;

  CompatibilityOracle* oracle_;
  const SkillAssignment& skills_;
  const SkillCompatibilityIndex* index_;
  GreedyParams params_;
  uint64_t oracle_fallbacks_ = 0;
};

/// MAX bound of Figure 2(a): true iff every pair of task skills is
/// compatible per the index — a necessary condition for any compatible
/// team (based on skills, not users; a rough upper bound). Exact only when
/// the index was built from all sources.
bool TaskSkillsCompatible(const SkillCompatibilityIndex& index,
                          const Task& task);

/// Exact MAX bound: for every pair of task skills checks directly whether
/// some compatible holder pair exists (including one user holding both).
/// Streams cached oracle rows with early exit, so solvable tasks are cheap.
bool TaskSkillsCompatibleExact(CompatibilityOracle* oracle,
                               const SkillAssignment& skills,
                               const Task& task);

/// Dense-view variant of the exact MAX bound for view.task(): the holder
/// streams become word-AND intersections of holder masks against raw-row
/// bits. Bit-identical verdict to the oracle overload.
bool TaskSkillsCompatibleExact(const TaskCompatView& view);

}  // namespace tfsn
