// Tests for the task-local dense compatibility view (task_view.h) and the
// greedy former's view fast path: the view must reproduce the oracle's
// pair semantics bit for bit, Form/FormTopK must return identical results
// on the view and oracle paths for every policy combination, and the
// parallel seed loop must be deterministic across thread counts.

#include "src/team/task_view.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/compat/row_codec.h"
#include "src/compat/skill_index.h"
#include "src/compat/threshold.h"
#include "src/gen/generators.h"
#include "src/graph/graph_builder.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/greedy.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

struct Instance {
  SignedGraph graph;
  SkillAssignment skills;
};

Instance MakeInstance(uint32_t n, uint64_t edges, double neg_fraction,
                      uint32_t num_skills, uint64_t seed) {
  Rng rng(seed);
  Instance inst{RandomConnectedGnm(n, edges, neg_fraction, &rng), {}};
  ZipfSkillParams sp;
  sp.num_skills = num_skills;
  inst.skills = ZipfSkills(n, sp, &rng);
  return inst;
}

void ExpectSameResult(const TeamResult& a, const TeamResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.members, b.members) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.seeds_tried, b.seeds_tried) << what;
  EXPECT_EQ(a.seeds_succeeded, b.seeds_succeeded) << what;
}

TEST(TaskViewTest, MatchesOraclePairSemanticsForAllKinds) {
  Instance inst = MakeInstance(40, 100, 0.25, 10, 21);
  Rng task_rng(5);
  for (CompatKind kind : AllCompatKinds()) {
    auto oracle = MakeOracle(inst.graph, kind);
    Task task = RandomTask(inst.skills, 4, &task_rng);
    auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
    ASSERT_NE(view, nullptr) << CompatKindName(kind);
    EXPECT_EQ(view->kind(), kind);
    const uint32_t m = view->size();
    ASSERT_GT(m, 0u);
    for (uint32_t a = 0; a < m; ++a) {
      const NodeId ga = view->GlobalOf(a);
      EXPECT_EQ(view->LocalOf(ga), a);
      const auto& row = oracle->GetRow(ga);
      for (uint32_t b = 0; b < m; ++b) {
        const NodeId gb = view->GlobalOf(b);
        EXPECT_EQ(view->PairCompatible(a, b), oracle->Compatible(ga, gb))
            << CompatKindName(kind) << " pair (" << ga << "," << gb << ")";
        EXPECT_EQ(view->PairDistance(a, b), oracle->Distance(ga, gb))
            << CompatKindName(kind) << " pair (" << ga << "," << gb << ")";
        // Directional raw-row bits mirror GetRow exactly.
        EXPECT_EQ(TestBit(view->DirRow(a), b), row.comp[gb] != 0);
      }
    }
  }
}

TEST(TaskViewTest, HolderMasksMatchAssignment) {
  Instance inst = MakeInstance(50, 130, 0.2, 8, 33);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng task_rng(7);
  Task task = RandomTask(inst.skills, 5, &task_rng);
  auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
  ASSERT_NE(view, nullptr);
  auto task_skills = task.skills();
  for (size_t p = 0; p < task_skills.size(); ++p) {
    EXPECT_EQ(view->TaskSkillPos(task_skills[p]), p);
    auto holders = inst.skills.Holders(task_skills[p]);
    EXPECT_EQ(view->HolderCount(p), holders.size());
    std::vector<uint32_t> locals;
    AppendSetBits(view->HolderMask(p), &locals);
    ASSERT_EQ(locals.size(), holders.size());
    for (size_t i = 0; i < holders.size(); ++i) {
      EXPECT_EQ(view->GlobalOf(locals[i]), holders[i]);
    }
  }
  // The universe is exactly the union of the holder lists, sorted.
  std::vector<NodeId> expect;
  for (SkillId s : task_skills) {
    auto hs = inst.skills.Holders(s);
    expect.insert(expect.end(), hs.begin(), hs.end());
  }
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  EXPECT_EQ(std::vector<NodeId>(view->universe().begin(),
                                view->universe().end()),
            expect);
}

TEST(TaskViewTest, ThresholdOracleCustomKernelSupported) {
  Instance inst = MakeInstance(36, 90, 0.3, 8, 43);
  auto oracle = MakeThresholdOracle(inst.graph, 0.75);
  Rng task_rng(9);
  Task task = RandomTask(inst.skills, 4, &task_rng);
  auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
  ASSERT_NE(view, nullptr);
  for (uint32_t a = 0; a < view->size(); ++a) {
    for (uint32_t b = 0; b < view->size(); ++b) {
      EXPECT_EQ(view->PairCompatible(a, b),
                oracle->Compatible(view->GlobalOf(a), view->GlobalOf(b)));
      EXPECT_EQ(view->PairDistance(a, b),
                oracle->Distance(view->GlobalOf(a), view->GlobalOf(b)));
    }
  }
}

TEST(TaskViewTest, UnreachablePairsMatchOracle) {
  // Two positive components with no connecting edge: cross-component NNE
  // pairs are compatible but at infinite distance.
  SignedGraphBuilder b(4);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(2, 3, Sign::kPositive).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  auto sa = std::move(SkillAssignment::Create({{0}, {0}, {1}, {1}}, 2))
                .ValueOrDie();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  auto view = TaskCompatView::Build(oracle.get(), sa, Task({0, 1}));
  ASSERT_NE(view, nullptr);
  const uint32_t l0 = view->LocalOf(0), l2 = view->LocalOf(2);
  EXPECT_TRUE(view->PairCompatible(l0, l2));
  EXPECT_EQ(view->PairDistance(l0, l2), kUnreachable);
  std::vector<uint32_t> team{l0, l2};
  EXPECT_EQ(TeamDiameter(*view, team), kUnreachable);
  std::vector<NodeId> global_team{0, 2};
  EXPECT_EQ(TeamDiameter(oracle.get(), global_team), kUnreachable);
}

TEST(TaskViewTest, CostOverloadsMatchOracle) {
  Instance inst = MakeInstance(45, 120, 0.25, 8, 55);
  Rng rng(11);
  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Task task = RandomTask(inst.skills, 5, &rng);
    auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
    ASSERT_NE(view, nullptr);
    for (int trial = 0; trial < 10; ++trial) {
      // Random teams drawn from the universe.
      std::vector<uint32_t> locals;
      std::vector<NodeId> globals;
      const uint32_t team_size =
          2 + static_cast<uint32_t>(rng.NextBounded(4));
      for (uint32_t i = 0; i < team_size; ++i) {
        const uint32_t l =
            static_cast<uint32_t>(rng.NextBounded(view->size()));
        locals.push_back(l);
        globals.push_back(view->GlobalOf(l));
      }
      EXPECT_EQ(TeamDiameter(*view, locals),
                TeamDiameter(oracle.get(), globals));
      EXPECT_EQ(TeamCompatible(*view, locals),
                TeamCompatible(oracle.get(), globals));
      for (CostKind cost_kind : {CostKind::kDiameter, CostKind::kSumOfPairs,
                                 CostKind::kCenterStar}) {
        EXPECT_EQ(TeamCost(*view, locals, cost_kind),
                  TeamCost(oracle.get(), globals, cost_kind));
      }
    }
  }
}

TEST(TaskViewTest, ExactMaxBoundMatchesOracle) {
  Instance inst = MakeInstance(40, 95, 0.35, 10, 77);
  Rng rng(13);
  for (CompatKind kind :
       {CompatKind::kSPA, CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    for (int trial = 0; trial < 8; ++trial) {
      Task task = RandomTask(inst.skills, 4, &rng);
      auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(TaskSkillsCompatibleExact(*view),
                TaskSkillsCompatibleExact(oracle.get(), inst.skills, task))
          << CompatKindName(kind);
    }
  }
}

TEST(TaskViewTest, BuildFallsBackOnTinyBudget) {
  Instance inst = MakeInstance(30, 70, 0.2, 6, 91);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng rng(15);
  Task task = RandomTask(inst.skills, 3, &rng);
  EXPECT_EQ(TaskCompatView::Build(oracle.get(), inst.skills, task,
                                  /*threads=*/1, /*max_bytes=*/16),
            nullptr);
}

TEST(TaskViewTest, CacheOnlyViewMatchesFormOnRowsFormTouched) {
  // A cache warmed by one lazy Form holds exactly the rows that form read,
  // so the cache-only view replays it with no missed row.
  Instance inst = MakeInstance(60, 160, 0.25, 10, 181);
  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kSBPH, CompatKind::kNNE}) {
    for (UserPolicy up :
         {UserPolicy::kMinDistance, UserPolicy::kMostCompatible}) {
      GreedyParams params;
      params.skill_policy = SkillPolicy::kRarest;
      params.user_policy = up;
      params.prefetch_threads = 0;
      Rng task_rng(47);
      for (int trial = 0; trial < 4; ++trial) {
        const std::string what = std::string(CompatKindName(kind)) + "/" +
                                 UserPolicyName(up) + "/trial " +
                                 std::to_string(trial);
        auto oracle = MakeOracle(inst.graph, kind);  // fresh private cache
        GreedyTeamFormer former(oracle.get(), inst.skills, nullptr, params);
        Task task = RandomTask(inst.skills, 4, &task_rng);
        Rng rng_a(8000 + trial), rng_b(8000 + trial);
        const TeamResult formed = former.Form(task, &rng_a);
        auto view = TaskCompatView::BuildFromCachedRows(
            oracle.get(), inst.skills, task,
            HolderUniverse(inst.skills, task.skills()),
            TaskCompatView::kDefaultMaxBytes);
        ASSERT_NE(view, nullptr) << what;
        ExpectSameResult(former.FormWithView(*view, task, &rng_b), formed,
                         what);
        EXPECT_EQ(view->missed_rows(), 0u) << what;
      }
    }
  }
}

TEST(TaskViewTest, CacheOnlyViewWithMissingRowsIsSound) {
  // On an empty cache every row the formation reads is a pessimistic fill,
  // counted as missed. With every other universe row resident, teams can
  // still form; each one must be compatible under the oracle.
  Instance inst = MakeInstance(60, 160, 0.25, 10, 191);
  uint32_t partial_found = 0;
  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kSBPH, CompatKind::kNNE}) {
    GreedyParams params;
    params.skill_policy = SkillPolicy::kRarest;
    Rng task_rng(53);
    for (int trial = 0; trial < 6; ++trial) {
      const std::string what =
          std::string(CompatKindName(kind)) + "/trial " + std::to_string(trial);
      Task task = RandomTask(inst.skills, 4, &task_rng);
      const std::vector<NodeId> universe =
          HolderUniverse(inst.skills, task.skills());
      for (bool partial : {false, true}) {
        auto oracle = MakeOracle(inst.graph, kind);
        if (partial) {
          for (size_t i = 0; i < universe.size(); i += 2) {
            oracle->GetRowShared(universe[i]);
          }
        }
        const uint64_t computed = oracle->rows_computed();
        GreedyTeamFormer former(oracle.get(), inst.skills, nullptr, params);
        auto view = TaskCompatView::BuildFromCachedRows(
            oracle.get(), inst.skills, task, universe,
            TaskCompatView::kDefaultMaxBytes);
        ASSERT_NE(view, nullptr) << what;
        Rng rng(9000 + trial);
        const TeamResult result = former.FormWithView(*view, task, &rng);
        EXPECT_EQ(oracle->rows_computed(), computed) << what;
        if (!partial) {
          EXPECT_GT(view->missed_rows(), 0u) << what;
        }
        if (result.found) {
          partial_found += partial;
          EXPECT_TRUE(TeamCompatible(oracle.get(), result.members)) << what;
        }
      }
    }
  }
  EXPECT_GT(partial_found, 0u);
}

TEST(TaskViewTest, GraphAboveUint16DistancesFormsOnView) {
  // A 70,000-node positive path with the two skills at its ends: the only
  // team spans the whole path, at a distance no uint16 cell can hold.
  constexpr uint32_t kNodes = 70000;
  SignedGraphBuilder b(kNodes);
  for (NodeId u = 0; u + 1 < kNodes; ++u) {
    b.AddEdge(u, u + 1, Sign::kPositive).CheckOK();
  }
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  std::vector<std::vector<SkillId>> user_skills(kNodes);
  user_skills[0] = {0};
  user_skills[kNodes - 1] = {1};
  auto sa = std::move(SkillAssignment::Create(user_skills, 2)).ValueOrDie();
  const Task task({0, 1});
  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kNNE}) {
    auto oracle = MakeOracle(g, kind);
    GreedyParams params;
    params.skill_policy = SkillPolicy::kRarest;
    GreedyParams ref_params = params;
    ref_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer former(oracle.get(), sa, nullptr, params);
    GreedyTeamFormer reference(oracle.get(), sa, nullptr, ref_params);
    Rng rng_a(1), rng_b(1);
    const TeamResult via_view = former.Form(task, &rng_a);
    ExpectSameResult(via_view, reference.Form(task, &rng_b),
                     CompatKindName(kind));
    EXPECT_TRUE(via_view.found) << CompatKindName(kind);
    EXPECT_EQ(via_view.members, (std::vector<NodeId>{0, kNodes - 1}));
    EXPECT_EQ(via_view.cost, kNodes - 1) << CompatKindName(kind);
    EXPECT_EQ(former.oracle_fallbacks(), 0u) << CompatKindName(kind);
  }
  // The scalar rows from the ends hold distances past 65,534 (4-byte
  // store), the one from the middle does not (2 bytes); each round-trips
  // through the codec with its values and width.
  for (const NodeId q : {NodeId{0}, kNodes - 1, kNodes / 2}) {
    const CompatRow row = ComputeCompatRow(g, CompatKind::kSPM, {}, q);
    EXPECT_EQ(row.dist.width(), q == kNodes / 2 ? 2u : 4u) << q;
    EXPECT_EQ(row.dist.MaxFinite(), std::max(q, kNodes - 1 - q)) << q;
    CompatRow decoded;
    ASSERT_TRUE(DecodeRow(EncodeRow(row), &decoded)) << q;
    EXPECT_EQ(decoded.comp, row.comp) << q;
    EXPECT_EQ(decoded.dist, row.dist) << q;
    EXPECT_EQ(decoded.dist.width(), row.dist.width()) << q;
  }
}

// ---------------------------------------------------------------------------
// Former equivalence: view path vs oracle path
// ---------------------------------------------------------------------------

GreedyParams PathParams(SkillPolicy sp, UserPolicy up, GreedyEvalPath path) {
  GreedyParams p;
  p.skill_policy = sp;
  p.user_policy = up;
  p.eval_path = path;
  return p;
}

TEST(GreedyViewEquivalenceTest, FormIdenticalAcrossAllPolicyCombos) {
  Instance inst = MakeInstance(42, 116, 0.25, 12, 101);
  for (CompatKind kind : AllCompatKinds()) {
    // A depth-bounded exact-SBP search and a sampled index keep this
    // combo sweep affordable (under TSan especially); both paths share
    // the oracle and the index, so equivalence is unaffected.
    OracleParams oracle_params;
    oracle_params.sbp.max_depth = 6;
    auto oracle = MakeOracle(inst.graph, kind, oracle_params);
    Rng index_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst.skills,
                                  kind == CompatKind::kSBP ? 12 : 0,
                                  &index_rng);
    for (SkillPolicy sp :
         {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
      for (UserPolicy up :
           {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
            UserPolicy::kRandom}) {
        for (uint32_t prefetch : {0u, 4u}) {
          for (uint32_t seed_threads : {1u, 4u}) {
            // The default path (the dense view) against the oracle loop.
            GreedyParams view_params;
            view_params.skill_policy = sp;
            view_params.user_policy = up;
            view_params.prefetch_threads = prefetch;
            view_params.seed_threads = seed_threads;
            GreedyParams oracle_params = view_params;
            oracle_params.eval_path = GreedyEvalPath::kOracle;
            GreedyTeamFormer view_former(oracle.get(), inst.skills, &index,
                                         view_params);
            GreedyTeamFormer oracle_former(oracle.get(), inst.skills, &index,
                                           oracle_params);
            const std::string what =
                std::string(CompatKindName(kind)) + "/" +
                SkillPolicyName(sp) + "/" + UserPolicyName(up) +
                "/prefetch=" + std::to_string(prefetch) +
                "/seed_threads=" + std::to_string(seed_threads);
            Rng task_rng(17);
            for (int trial = 0; trial < 4; ++trial) {
              Task task = RandomTask(inst.skills, 4, &task_rng);
              Rng rng_a(1000 + trial), rng_b(1000 + trial);
              ExpectSameResult(view_former.Form(task, &rng_a),
                               oracle_former.Form(task, &rng_b), what);
              // Both paths consumed the same rng stream.
              EXPECT_EQ(rng_a.Next(), rng_b.Next()) << what;
            }
            EXPECT_EQ(view_former.oracle_fallbacks(), 0u) << what;
          }
        }
      }
    }
  }
}

TEST(GreedyViewEquivalenceTest, FormIdenticalWithSeedCapAndCostKinds) {
  Instance inst = MakeInstance(60, 170, 0.2, 8, 111);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(4);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  for (CostKind cost_kind : {CostKind::kDiameter, CostKind::kSumOfPairs,
                             CostKind::kCenterStar}) {
    GreedyParams base = PathParams(SkillPolicy::kLeastCompatible,
                                   UserPolicy::kMinDistance,
                                   GreedyEvalPath::kView);
    base.max_seeds = 4;
    base.cost_kind = cost_kind;
    GreedyParams oracle_params = base;
    oracle_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer view_former(oracle.get(), inst.skills, &index, base);
    GreedyTeamFormer oracle_former(oracle.get(), inst.skills, &index,
                                   oracle_params);
    Rng task_rng(19);
    for (int trial = 0; trial < 5; ++trial) {
      Task task = RandomTask(inst.skills, 5, &task_rng);
      Rng rng_a(2000 + trial), rng_b(2000 + trial);
      ExpectSameResult(view_former.Form(task, &rng_a),
                       oracle_former.Form(task, &rng_b),
                       CostKindName(cost_kind));
    }
  }
}

TEST(GreedyViewEquivalenceTest, MostCompatiblePoolThinningIdentical) {
  // A tiny pool cap forces the deterministic thinning branch on every
  // step (the default cap of 256 is never reached on test-sized graphs).
  Instance inst = MakeInstance(70, 200, 0.2, 9, 161);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPO);
  Rng index_rng(9);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  for (uint32_t cap : {3u, 7u, 16u}) {
    GreedyParams view_params = PathParams(
        SkillPolicy::kRarest, UserPolicy::kMostCompatible,
        GreedyEvalPath::kView);
    view_params.most_compatible_pool_cap = cap;
    GreedyParams oracle_params = view_params;
    oracle_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer view_former(oracle.get(), inst.skills, &index,
                                 view_params);
    GreedyTeamFormer oracle_former(oracle.get(), inst.skills, &index,
                                   oracle_params);
    Rng task_rng(41);
    for (int trial = 0; trial < 5; ++trial) {
      Task task = RandomTask(inst.skills, 5, &task_rng);
      Rng rng_a(6000 + trial), rng_b(6000 + trial);
      ExpectSameResult(view_former.Form(task, &rng_a),
                       oracle_former.Form(task, &rng_b),
                       "pool_cap=" + std::to_string(cap));
    }
  }
}

TEST(GreedyViewEquivalenceTest, FormTopKIdentical) {
  Instance inst = MakeInstance(55, 150, 0.25, 10, 121);
  for (CompatKind kind : {CompatKind::kSPO, CompatKind::kSBPH}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng index_rng(5);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
    GreedyTeamFormer view_former(
        oracle.get(), inst.skills, &index,
        PathParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance,
                   GreedyEvalPath::kView));
    GreedyTeamFormer oracle_former(
        oracle.get(), inst.skills, &index,
        PathParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance,
                   GreedyEvalPath::kOracle));
    Rng task_rng(23);
    for (int trial = 0; trial < 4; ++trial) {
      Task task = RandomTask(inst.skills, 4, &task_rng);
      Rng rng_a(3000 + trial), rng_b(3000 + trial);
      auto via_view = view_former.FormTopK(task, 5, &rng_a);
      auto via_oracle = oracle_former.FormTopK(task, 5, &rng_b);
      ASSERT_EQ(via_view.size(), via_oracle.size()) << CompatKindName(kind);
      for (size_t i = 0; i < via_view.size(); ++i) {
        EXPECT_EQ(via_view[i].members, via_oracle[i].members);
        EXPECT_EQ(via_view[i].cost, via_oracle[i].cost);
        EXPECT_EQ(via_view[i].objective, via_oracle[i].objective);
      }
    }
  }
}

TEST(GreedyViewEquivalenceTest, ViewFallsBackUnderBudgetAndStaysIdentical) {
  Instance inst = MakeInstance(40, 100, 0.2, 8, 131);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng index_rng(6);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  GreedyParams view_params = PathParams(
      SkillPolicy::kRarest, UserPolicy::kMinDistance, GreedyEvalPath::kView);
  view_params.view_max_bytes = 16;  // nothing fits: forces the oracle path
  GreedyTeamFormer capped(oracle.get(), inst.skills, &index, view_params);
  GreedyTeamFormer reference(
      oracle.get(), inst.skills, &index,
      PathParams(SkillPolicy::kRarest, UserPolicy::kMinDistance,
                 GreedyEvalPath::kOracle));
  Rng task_rng(29);
  for (int trial = 0; trial < 4; ++trial) {
    Task task = RandomTask(inst.skills, 4, &task_rng);
    Rng rng_a(4000 + trial), rng_b(4000 + trial);
    ExpectSameResult(capped.Form(task, &rng_a), reference.Form(task, &rng_b),
                     "view-fallback");
    EXPECT_EQ(capped.oracle_fallbacks(), static_cast<uint64_t>(trial) + 1);
  }
  Rng rng(4100);
  capped.FormTopK(RandomTask(inst.skills, 4, &task_rng), 3, &rng);
  EXPECT_EQ(capped.oracle_fallbacks(), 5u);
  // A pinned oracle path is not a fallback.
  EXPECT_EQ(reference.oracle_fallbacks(), 0u);
}

TEST(GreedyViewEquivalenceTest, ColdCacheViewComputesOracleRows) {
  // With prefetch off the view path must read rows on first touch only:
  // on a fresh private cache, Form computes exactly the rows the oracle
  // loop computes — not the whole holder universe up front.
  Instance inst = MakeInstance(300, 900, 0.2, 6, 171);
  auto index_oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(10);
  SkillCompatibilityIndex index(index_oracle.get(), inst.skills, 0,
                                &index_rng);
  auto view_oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  auto ref_oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  GreedyParams params;  // the default evaluation path
  params.skill_policy = SkillPolicy::kLeastCompatible;
  params.user_policy = UserPolicy::kMinDistance;
  params.prefetch_threads = 0;
  GreedyParams ref_params = params;
  ref_params.eval_path = GreedyEvalPath::kOracle;
  GreedyTeamFormer former(view_oracle.get(), inst.skills, &index, params);
  GreedyTeamFormer reference(ref_oracle.get(), inst.skills, &index,
                             ref_params);
  Rng task_rng(43);
  std::vector<NodeId> universes;
  for (int trial = 0; trial < 6; ++trial) {
    Task task = RandomTask(inst.skills, 3, &task_rng);
    auto universe = HolderUniverse(inst.skills, task.skills());
    universes.insert(universes.end(), universe.begin(), universe.end());
    Rng rng_a(7000 + trial), rng_b(7000 + trial);
    ExpectSameResult(former.Form(task, &rng_a), reference.Form(task, &rng_b),
                     "cold");
    EXPECT_EQ(view_oracle->rows_computed(), ref_oracle->rows_computed())
        << "trial " << trial;
  }
  EXPECT_EQ(former.oracle_fallbacks(), 0u);
  // The guard has teeth: an eager universe fetch would compute more.
  std::sort(universes.begin(), universes.end());
  universes.erase(std::unique(universes.begin(), universes.end()),
                  universes.end());
  EXPECT_LT(ref_oracle->rows_computed(), universes.size());
}

// ---------------------------------------------------------------------------
// Thread determinism of the parallel seed loop
// ---------------------------------------------------------------------------

TEST(GreedySeedThreadsTest, ResultsIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(120, 360, 0.2, 10, 141);
  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng index_rng(7);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
    for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
                          UserPolicy::kRandom}) {
      Rng task_rng(31);
      std::vector<Task> tasks;
      for (int t = 0; t < 3; ++t) {
        tasks.push_back(RandomTask(inst.skills, 5, &task_rng));
      }
      std::vector<TeamResult> reference;
      for (uint32_t threads : {1u, 2u, 8u}) {
        GreedyParams params = PathParams(SkillPolicy::kLeastCompatible, up,
                                         GreedyEvalPath::kView);
        params.seed_threads = threads;
        GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
        for (size_t t = 0; t < tasks.size(); ++t) {
          Rng rng(5000 + static_cast<uint64_t>(t));
          TeamResult result = former.Form(tasks[t], &rng);
          if (threads == 1) {
            reference.push_back(result);
          } else {
            ExpectSameResult(result, reference[t],
                             std::string(CompatKindName(kind)) + "/" +
                                 UserPolicyName(up) + "/threads=" +
                                 std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(GreedySeedThreadsTest, FormTopKIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(100, 300, 0.25, 8, 151);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng index_rng(8);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  Rng task_rng(37);
  Task task = RandomTask(inst.skills, 5, &task_rng);
  std::vector<TeamResult> reference;
  for (uint32_t threads : {1u, 2u, 8u}) {
    GreedyParams params = PathParams(SkillPolicy::kRarest,
                                     UserPolicy::kRandom, GreedyEvalPath::kView);
    params.seed_threads = threads;
    GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
    Rng rng(61);
    auto teams = former.FormTopK(task, 6, &rng);
    if (threads == 1) {
      reference = teams;
      EXPECT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(teams.size(), reference.size()) << threads;
      for (size_t i = 0; i < teams.size(); ++i) {
        EXPECT_EQ(teams[i].members, reference[i].members) << threads;
        EXPECT_EQ(teams[i].objective, reference[i].objective) << threads;
      }
    }
  }
}

}  // namespace
}  // namespace tfsn
