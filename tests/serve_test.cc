// Tests for the serving layer (src/serve): the server must return teams
// bit-identical to the direct GreedyTeamFormer path for every request —
// whatever the worker count, cache tiering, or arrival order — and
// compute no row the direct path would not.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "src/compat/row_spill.h"
#include "src/compat/skill_index.h"
#include "src/gen/generators.h"
#include "src/serve/workload.h"
#include "src/skills/skill_generator.h"
#include "src/team/greedy.h"
#include "src/team/task_view.h"
#include "src/util/rng.h"

namespace tfsn::serve {
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

void ExpectSameTeam(const TeamResult& a, const TeamResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.members, b.members) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.seeds_tried, b.seeds_tried) << what;
  EXPECT_EQ(a.seeds_succeeded, b.seeds_succeeded) << what;
}

// Forms every request directly (no server) with the given params — the
// reference the serving path must reproduce bit for bit.
std::vector<TeamResult> DirectReference(const Instance& inst, CompatKind kind,
                                        const GreedyParams& params,
                                        const std::vector<TeamRequest>& reqs) {
  auto oracle = MakeOracle(inst.graph, kind);
  Rng idx_rng(3);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &idx_rng);
  GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
  std::vector<TeamResult> out;
  out.reserve(reqs.size());
  for (const TeamRequest& req : reqs) {
    Rng rng(req.rng_seed);
    out.push_back(former.Form(req.task, &rng));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

TEST(ZipfTaskSamplerTest, ValidAndDeterministic) {
  Instance inst = MakeInstance(60, 140, 0.2, 15, 11);
  ZipfTaskSampler sampler(inst.skills, 1.0);
  Rng rng_a(5), rng_b(5);
  for (int i = 0; i < 20; ++i) {
    Task a = sampler.Sample(3, &rng_a);
    Task b = sampler.Sample(3, &rng_b);
    EXPECT_EQ(a, b);  // same stream, same tasks
    EXPECT_EQ(a.size(), 3u);
    for (SkillId s : a.skills()) {
      EXPECT_GT(inst.skills.Frequency(s), 0u) << "sampled an unheld skill";
    }
  }
}

TEST(WorkloadTest, GenerateRequestsDeterministic) {
  Instance inst = MakeInstance(60, 140, 0.2, 15, 11);
  WorkloadOptions options;
  options.num_requests = 30;
  options.seed = 77;
  const auto a = GenerateRequests(inst.skills, options);
  const auto b = GenerateRequests(inst.skills, options);
  ASSERT_EQ(a.size(), 30u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].rng_seed, b[i].rng_seed);
  }
}

// ---------------------------------------------------------------------------
// FormWithView: a superset-task view serves member tasks bit-identically
// ---------------------------------------------------------------------------

TEST(FormWithViewTest, SupersetViewMatchesDirectFormAllPoliciesAndKinds) {
  Instance inst = MakeInstance(60, 150, 0.25, 12, 21);
  Rng task_rng(9);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(RandomTask(inst.skills, 3, &task_rng));
  }
  // The union task covers every sampled task: one view serves them all.
  std::vector<SkillId> union_skills;
  for (const Task& t : tasks) {
    union_skills.insert(union_skills.end(), t.skills().begin(),
                        t.skills().end());
  }
  Task superset_task(union_skills);

  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kNNE, CompatKind::kSBPH}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng idx_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &idx_rng);
    auto view = TaskCompatView::Build(oracle.get(), inst.skills, superset_task);
    ASSERT_NE(view, nullptr);
    for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
                          UserPolicy::kRandom}) {
      GreedyParams params;
      params.user_policy = up;
      params.max_seeds = 4;  // exercises rng-driven seed sampling too
      GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
      for (size_t t = 0; t < tasks.size(); ++t) {
        const uint64_t seed = 1000 + t;
        Rng rng_shared(seed);
        TeamResult via_shared =
            former.FormWithView(*view, tasks[t], &rng_shared);
        for (GreedyEvalPath path :
             {GreedyEvalPath::kView, GreedyEvalPath::kOracle}) {
          GreedyParams direct = params;
          direct.eval_path = path;
          GreedyTeamFormer ref(oracle.get(), inst.skills, &index, direct);
          Rng rng_direct(seed);
          TeamResult via_direct = ref.Form(tasks[t], &rng_direct);
          ExpectSameTeam(via_shared, via_direct,
                         std::string(CompatKindName(kind)) + "/" +
                             UserPolicyName(up) + "/task" + std::to_string(t));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Server end-to-end
// ---------------------------------------------------------------------------

struct ServerHarness {
  Instance inst;
  std::shared_ptr<RowCache> cache;
  std::unique_ptr<CompatibilityOracle> oracle;  // index construction only
  std::unique_ptr<SkillCompatibilityIndex> index;

  explicit ServerHarness(uint64_t seed = 21)
      : inst(MakeInstance(80, 200, 0.25, 15, seed)) {
    cache = std::make_shared<RowCache>();
    oracle = MakeOracle(inst.graph, CompatKind::kSPM, OracleParams{}, cache);
    Rng rng(3);
    index = std::make_unique<SkillCompatibilityIndex>(oracle.get(), inst.skills,
                                                      0, &rng);
  }

  ServerOptions Options(uint32_t workers) const {
    ServerOptions options;
    options.workers = workers;
    return options;
  }

  std::unique_ptr<TeamFormationServer> NewServer(uint32_t workers) {
    return std::make_unique<TeamFormationServer>(inst.graph, inst.skills,
                                                 index.get(), CompatKind::kSPM,
                                                 cache, Options(workers));
  }
};

std::vector<TeamRequest> HarnessRequests(const ServerHarness& h, uint32_t n,
                                         uint64_t seed = 77) {
  WorkloadOptions options;
  options.num_requests = n;
  options.task_size = 3;
  options.zipf_exponent = 1.0;
  options.seed = seed;
  return GenerateRequests(h.inst.skills, options);
}

TEST(TeamFormationServerTest, BitIdenticalToDirectFormerPath) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 60);
  auto server = h.NewServer(/*workers=*/2);
  WorkloadResult run = RunClosedLoop(server.get(), requests, /*clients=*/4);
  server->Shutdown();

  ASSERT_EQ(run.completed, requests.size());
  ASSERT_EQ(run.responses.size(), requests.size());
  const std::vector<TeamResult> reference = DirectReference(
      h.inst, CompatKind::kSPM, server->options().greedy, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(run.responses[i].id, requests[i].id);
    EXPECT_TRUE(run.responses[i].used_view);
    ExpectSameTeam(run.responses[i].result, reference[i],
                   "request " + std::to_string(i));
  }
}

TEST(TeamFormationServerTest, ReplayIsStableAcrossWorkerCounts) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 50);

  std::vector<WorkloadResult> runs;
  for (uint32_t workers : {1u, 2u, 4u}) {
    auto server = h.NewServer(workers);
    runs.push_back(RunClosedLoop(server.get(), requests, /*clients=*/4));
    server->Shutdown();
    // One full-path Form per request, each on its own view.
    const ServerMetrics m = server->Metrics();
    EXPECT_EQ(m.batches, requests.size());
    EXPECT_EQ(m.shared_view_batches, requests.size());
  }
  for (const WorkloadResult& run : runs) {
    ASSERT_EQ(run.responses.size(), requests.size());
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectSameTeam(runs[0].responses[i].result, runs[r].responses[i].result,
                     "run " + std::to_string(r) + ", request " +
                         std::to_string(i));
    }
  }
}

TEST(TeamFormationServerTest, ServedRequestComputesOnlyTheRowsFormTouches) {
  // A served request costs the rows its own Form reads and no more: the
  // server's fresh cache ends with exactly the rows a direct,
  // prefetch-free Form over the same stream computes on another fresh
  // cache. A prefetch of each task's holder universe would insert every
  // holder's row instead.
  ServerHarness h;
  const auto requests = HarnessRequests(h, 40);

  auto direct_cache = std::make_shared<RowCache>();
  {
    auto oracle = MakeOracle(h.inst.graph, CompatKind::kSPM, OracleParams{},
                             direct_cache);
    GreedyParams params;
    params.prefetch_threads = 0;
    GreedyTeamFormer former(oracle.get(), h.inst.skills, h.index.get(),
                            params);
    for (const TeamRequest& req : requests) {
      Rng rng(req.rng_seed);
      former.Form(req.task, &rng);
    }
  }
  const uint64_t direct_rows = direct_cache->SnapshotCounters().insertions;
  ASSERT_GT(direct_rows, 0u);

  auto served_cache = std::make_shared<RowCache>();
  ServerOptions options = h.Options(/*workers=*/1);
  options.greedy.prefetch_threads = 4;  // the server must override it
  TeamFormationServer server(h.inst.graph, h.inst.skills, h.index.get(),
                             CompatKind::kSPM, served_cache, options);
  WorkloadResult run = RunBurst(&server, requests);
  server.Shutdown();
  ASSERT_EQ(run.completed, requests.size());
  EXPECT_EQ(served_cache->SnapshotCounters().insertions, direct_rows);
}

TEST(TeamFormationServerTest, TieredCacheServesBitIdenticalTeams) {
  // A server over the full tiered store — compressed rows, a starvation
  // row budget that forces churn through the disk spill, and a Zipf
  // prewarm before traffic — must still return teams bit-identical to
  // the flat direct path. Storage tiers change where a row lives, never
  // what it says.
  ServerHarness h;
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "serve-tiered-spill")
          .string();
  std::filesystem::remove_all(spill_dir);
  auto spill = std::make_shared<RowSpillStore>(spill_dir);
  ASSERT_TRUE(spill->ok());
  RowCacheOptions copts;
  copts.compress = true;
  copts.spill = spill;
  copts.max_rows = 8;  // most rows must round-trip through disk
  copts.shards = 2;
  auto tiered = std::make_shared<RowCache>(copts);
  auto oracle =
      MakeOracle(h.inst.graph, CompatKind::kSPM, OracleParams{}, tiered);
  Rng idx_rng(3);
  SkillCompatibilityIndex index(oracle.get(), h.inst.skills, 0, &idx_rng);

  PrewarmOptions popts;
  popts.fraction = 0.5;
  const PrewarmReport report =
      PrewarmZipfHead(oracle.get(), h.inst.skills, popts);
  EXPECT_GT(report.holders_ranked, 0u);
  EXPECT_GT(report.rows_prewarmed, 0u);

  const auto requests = HarnessRequests(h, 60);
  TeamFormationServer server(h.inst.graph, h.inst.skills, &index,
                             CompatKind::kSPM, tiered, h.Options(2));
  WorkloadResult run = RunClosedLoop(&server, requests, /*clients=*/4);
  server.Shutdown();

  ASSERT_EQ(run.completed, requests.size());
  const std::vector<TeamResult> reference = DirectReference(
      h.inst, CompatKind::kSPM, server.options().greedy, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(run.responses[i].id, requests[i].id);
    ExpectSameTeam(run.responses[i].result, reference[i],
                   "tiered, request " + std::to_string(i));
  }
  // The tiers actually engaged: blobs were decoded on pin, evictions hit
  // the spill store, and rows came back from it.
  const ServerMetrics m = server.Metrics();
  EXPECT_GT(m.cache.decodes, 0u);
  EXPECT_GT(m.cache.spill_writes, 0u);
  EXPECT_GT(m.cache.spill_reads, 0u);
  EXPECT_GT(m.cache.compressed_bytes, 0u);
  EXPECT_GT(spill->stats().records, 0u);
}

TEST(TeamFormationServerTest, RandomPolicyReplayDeterminism) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 30);
  ServerOptions options = h.Options(2);
  options.greedy.user_policy = UserPolicy::kRandom;

  std::vector<WorkloadResult> runs;
  for (int r = 0; r < 2; ++r) {
    TeamFormationServer server(h.inst.graph, h.inst.skills, h.index.get(),
                               CompatKind::kSPM, h.cache, options);
    runs.push_back(RunClosedLoop(&server, requests, 4));
    server.Shutdown();
  }
  ASSERT_EQ(runs[0].responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameTeam(runs[0].responses[i].result, runs[1].responses[i].result,
                   "RANDOM replay, request " + std::to_string(i));
  }
}

TEST(TeamFormationServerTest, MetricsAccounting) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 40);
  auto server = h.NewServer(2);
  WorkloadResult run = RunClosedLoop(server.get(), requests, 4);
  server->Shutdown();
  const ServerMetrics m = server->Metrics();

  EXPECT_EQ(run.completed, requests.size());
  EXPECT_EQ(m.completed, requests.size());
  EXPECT_EQ(m.total_us.count(), requests.size());
  EXPECT_EQ(m.queue_us.count(), requests.size());
  EXPECT_EQ(m.service_us.count(), requests.size());
  // Deadline-free traffic: every request takes the full path once.
  EXPECT_EQ(m.batches, requests.size());
  EXPECT_EQ(m.batches, m.shared_view_batches + m.fallback_batches);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.degraded, 0u);
  EXPECT_GT(m.cache.lookups(), 0u);
  // Percentiles are well-defined and ordered.
  EXPECT_LE(m.total_us.ValueAtQuantile(0.5), m.total_us.ValueAtQuantile(0.99));
}

TEST(TeamFormationServerTest, ShutdownDrainsAndRefusesNewWork) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 20);
  auto server = h.NewServer(1);
  std::vector<std::future<TeamResponse>> futures;
  for (const TeamRequest& req : requests) {
    std::future<TeamResponse> fut;
    ASSERT_TRUE(server->Submit(req, &fut).ok());
    futures.push_back(std::move(fut));
  }
  server->Shutdown();
  // Every admitted request was served before the workers exited.
  for (auto& fut : futures) {
    const TeamResponse resp = fut.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  }
  std::future<TeamResponse> fut;
  EXPECT_TRUE(server->Submit(requests[0], &fut).IsUnavailable());
  EXPECT_TRUE(server->TrySubmit(requests[0], &fut).IsUnavailable());
  server->Shutdown();  // idempotent
}

TEST(TeamFormationServerTest, OpenLoopAccountsEveryArrival) {
  ServerHarness h;
  const auto requests = HarnessRequests(h, 30);
  ServerOptions options = h.Options(1);
  options.queue_capacity = 4;  // tiny queue: drops are possible, not required
  TeamFormationServer server(h.inst.graph, h.inst.skills, h.index.get(),
                             CompatKind::kSPM, h.cache, options);
  Rng arrivals(5);
  WorkloadResult run =
      RunOpenLoop(&server, requests, /*qps=*/50000.0, &arrivals);
  server.Shutdown();
  EXPECT_EQ(run.submitted + run.dropped, requests.size());
  EXPECT_EQ(run.completed, run.submitted);
  EXPECT_EQ(run.responses.size(), run.completed);
  // Served requests still match the direct path.
  const std::vector<TeamResult> reference = DirectReference(
      h.inst, CompatKind::kSPM, server.options().greedy, requests);
  for (const TeamResponse& resp : run.responses) {
    ExpectSameTeam(resp.result, reference[resp.id],
                   "open loop, request " + std::to_string(resp.id));
  }
}

}  // namespace
}  // namespace tfsn::serve
