// Microbenchmarks for team formation.
//
// Two modes:
//
//  1. View-vs-oracle greedy formation (always available):
//       micro_team --quick [--json=BENCH_micro_team.json]
//       micro_team [--tasks=N] [--max_seeds=N] [--json=...]
//     measures GreedyTeamFormer::Form on the Epinions-scale fixture with
//     the task-local dense view (task_view.h) against the pair-by-pair
//     oracle path, asserting bit-identical results while timing, then
//     sweeps seed_threads on the view path (again asserting identical
//     teams). The same comparison then runs on a generated graph of
//     40,000 nodes. Every view pass aborts if its former fell back to the
//     oracle loop. One JSON object per measurement, with the host's nproc,
//     compiler and build type, lands in the BENCH_*.json trajectory file
//     (format: README, "Bench JSON output"). --quick trims
//     the sweep for CI smoke runs and skips the Google-Benchmark suite.
//
//  2. The Google-Benchmark suite (when the library is available): the
//     greedy former per policy, the exact solver on small instances, the
//     unsigned RarestFirst baseline, and the skill-index build. Run with
//     --benchmark_filter=... to narrow.

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/compat/skill_index.h"
#include "src/data/datasets.h"
#include "src/gen/generators.h"
#include "src/skills/skill_generator.h"
#include "src/team/exact.h"
#include "src/team/greedy.h"
#include "src/team/unsigned_tf.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

#ifdef TFSN_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace tfsn {
namespace {

struct Fixture {
  Dataset ds;
  std::shared_ptr<RowCache> cache;
  std::unique_ptr<CompatibilityOracle> oracle;
  std::unique_ptr<SkillCompatibilityIndex> index;

  Fixture(Dataset dataset, CompatKind kind) : ds(std::move(dataset)) {
    RowCacheOptions cache_options;
    cache_options.max_bytes = 512ull << 20;
    cache = std::make_shared<RowCache>(cache_options);
    oracle = MakeOracle(ds.graph, kind, OracleParams{}, cache);
    Rng rng(9);
    index = std::make_unique<SkillCompatibilityIndex>(oracle.get(), ds.skills,
                                                      200, &rng);
  }
};

// Epinions scale of the shared fixture; settable once via --scale before
// the first SharedFixture call (0.12 ≈ 3.5k users, 25k edges).
double g_fixture_scale = 0.12;

Fixture& SharedFixture(CompatKind kind) {
  static auto* cache = new std::map<CompatKind, std::unique_ptr<Fixture>>();
  auto it = cache->find(kind);
  if (it == cache->end()) {
    DatasetOptions options;
    options.scale = g_fixture_scale;
    it = cache->emplace(kind,
                        std::make_unique<Fixture>(MakeEpinions(options), kind))
             .first;
  }
  return *it->second;
}

// A connected G(n, 4n) graph with Zipf skills and n = 40,000 > 2^15,
// where finite relation distances no longer fit 16 bits: the row shows
// that the view serves such graphs without falling back to the oracle
// loop.
Dataset LargeGnm() {
  constexpr uint32_t kNodes = 40000;
  Rng rng(2026);
  Dataset ds;
  ds.name = "gnm";
  ds.graph = RandomConnectedGnm(kNodes, 4ull * kNodes, 0.2, &rng);
  ZipfSkillParams sp;
  sp.num_skills = 2000;
  ds.skills = ZipfSkills(kNodes, sp, &rng);
  return ds;
}

// ---------------------------------------------------------------------------
// View vs oracle greedy formation (the PR's headline measurement)
// ---------------------------------------------------------------------------

// Throughput guarded against a zero-rounded timer so JSON stays parseable.
double Rate(size_t tasks, double seconds) {
  return seconds > 0 ? tasks / seconds : 0.0;
}

bool SameResult(const TeamResult& a, const TeamResult& b) {
  return a.found == b.found && a.members == b.members && a.cost == b.cost &&
         a.objective == b.objective;
}

GreedyParams EvalParams(UserPolicy up, GreedyEvalPath path,
                        uint32_t max_seeds, uint32_t seed_threads) {
  GreedyParams params;
  params.skill_policy = SkillPolicy::kLeastCompatible;
  params.user_policy = up;
  params.max_seeds = max_seeds;
  params.eval_path = path;
  params.seed_threads = seed_threads;
  return params;
}

// Tasks drawn from the `top_pool` most-held skills: the dense regime where
// the paper iterates every holder as a seed and the oracle path's
// O(seeds × |team| × |holders|) pair lookups dominate. (Uniform sampling
// over Zipf skills mostly yields rare skills and trivial seed loops.)
std::vector<Task> DenseTasks(const SkillAssignment& sa, uint32_t k,
                             uint32_t count, uint32_t top_pool, Rng* rng) {
  std::vector<SkillId> by_freq;
  for (SkillId s = 0; s < sa.num_skills(); ++s) {
    if (sa.Frequency(s) > 0) by_freq.push_back(s);
  }
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&](SkillId a, SkillId b) {
                     return sa.Frequency(a) > sa.Frequency(b);
                   });
  if (by_freq.size() > top_pool) by_freq.resize(top_pool);
  std::vector<Task> tasks;
  tasks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<uint32_t> picks = rng->SampleWithoutReplacement(
        static_cast<uint32_t>(by_freq.size()), k);
    std::vector<SkillId> skills;
    skills.reserve(k);
    for (uint32_t p : picks) skills.push_back(by_freq[p]);
    tasks.emplace_back(std::move(skills));
  }
  return tasks;
}

// Forms every task with `params` against the shared fixture, recording
// wall time and results. Each run re-seeds its own Rng so paths and
// thread counts see identical random streams. A view-path pass aborts
// when its former fell back to the oracle loop: a silent fallback would
// time the wrong path; the count is stored in `*fallbacks`.
double RunFormPass(Fixture& fx, const std::vector<Task>& tasks,
                   const GreedyParams& params,
                   std::vector<TeamResult>* results,
                   uint64_t* fallbacks = nullptr) {
  GreedyTeamFormer former(fx.oracle.get(), fx.ds.skills, fx.index.get(),
                          params);
  results->clear();
  results->reserve(tasks.size());
  Timer timer;
  for (size_t t = 0; t < tasks.size(); ++t) {
    Rng rng(100 + static_cast<uint64_t>(t));
    results->push_back(former.Form(tasks[t], &rng));
  }
  const double seconds = timer.Seconds();
  if (former.oracle_fallbacks() != 0) {
    std::fprintf(stderr, "FATAL: %s: %llu view fallbacks to the oracle loop\n",
                 fx.ds.name.c_str(),
                 static_cast<unsigned long long>(former.oracle_fallbacks()));
    std::abort();
  }
  if (fallbacks != nullptr) *fallbacks = former.oracle_fallbacks();
  return seconds;
}

// View vs oracle on one fixture (plus, when `seed_sweep`, the view path's
// seed_threads sweep), one JSON row per measurement.
void CompareOnFixture(Fixture& fx, CompatKind kind, const char* workload,
                      const std::vector<UserPolicy>& policies,
                      uint32_t num_tasks, uint32_t task_size,
                      uint32_t max_seeds, uint32_t top_pool, bool seed_sweep,
                      bench::JsonArrayWriter* json) {
  Rng task_rng(11);
  const std::vector<Task> tasks =
      DenseTasks(fx.ds.skills, task_size, num_tasks, top_pool, &task_rng);
  for (UserPolicy up : policies) {
    // Warm-up pass: pays the row-production cost once so both timed
    // passes measure query evaluation on a hot shared row cache.
    std::vector<TeamResult> warm;
    RunFormPass(fx, tasks, EvalParams(up, GreedyEvalPath::kView, max_seeds, 1),
                &warm);

    std::vector<TeamResult> via_oracle, via_view;
    const double oracle_seconds = RunFormPass(
        fx, tasks, EvalParams(up, GreedyEvalPath::kOracle, max_seeds, 1),
        &via_oracle);
    uint64_t fallbacks = 0;
    const double view_seconds = RunFormPass(
        fx, tasks, EvalParams(up, GreedyEvalPath::kView, max_seeds, 1),
        &via_view, &fallbacks);

    uint32_t solved = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      solved += via_view[t].found;
      if (!SameResult(via_oracle[t], via_view[t])) {
        std::fprintf(stderr, "FATAL: view/oracle mismatch on task %zu (%s)\n",
                     t, UserPolicyName(up));
        std::abort();
      }
    }
    const double speedup =
        view_seconds > 0 ? oracle_seconds / view_seconds : 0.0;
    std::printf("%8s %6u %5s %15s %12.2f %12.2f %8.2fx %6u/%zu\n",
                fx.ds.name.c_str(), fx.ds.graph.num_nodes(),
                CompatKindName(kind), UserPolicyName(up),
                Rate(tasks.size(), oracle_seconds),
                Rate(tasks.size(), view_seconds), speedup, solved,
                tasks.size());
    if (json != nullptr) {
      json->BeginObject();
      json->Field("bench", "micro_team");
      json->Field("experiment", "view_vs_oracle");
      json->Field("workload", workload);
      json->Field("n", fx.ds.graph.num_nodes());
      json->Field("edges", fx.ds.graph.num_edges());
      json->Field("kind", CompatKindName(kind));
      json->Field("policy", UserPolicyName(up));
      json->Field("tasks", static_cast<uint64_t>(tasks.size()));
      json->Field("task_size", task_size);
      json->Field("max_seeds", max_seeds);
      json->Field("threads", 1);
      json->Field("scalar_seconds", oracle_seconds);
      json->Field("view_seconds", view_seconds);
      json->Field("scalar_tasks_per_sec", Rate(tasks.size(), oracle_seconds));
      json->Field("view_tasks_per_sec", Rate(tasks.size(), view_seconds));
      json->Field("speedup", speedup);
      json->Field("identical", true);
      json->Field("oracle_fallbacks", fallbacks);
      bench::HardwareFields(json);
      json->EndObject();
    }
    if (!seed_sweep) continue;

    // Seed-loop thread sweep on the view path: results must stay
    // bit-identical while the wall clock (on multi-core hosts) drops.
    for (uint32_t seed_threads : {2u, 8u}) {
      std::vector<TeamResult> threaded;
      const double seconds = RunFormPass(
          fx, tasks,
          EvalParams(up, GreedyEvalPath::kView, max_seeds, seed_threads),
          &threaded, &fallbacks);
      for (size_t t = 0; t < tasks.size(); ++t) {
        if (!SameResult(threaded[t], via_view[t])) {
          std::fprintf(stderr, "FATAL: seed_threads=%u mismatch on task %zu\n",
                       seed_threads, t);
          std::abort();
        }
      }
      std::printf("%8s %6u %5s %15s   seed_threads=%u: %.2f tasks/s\n",
                  fx.ds.name.c_str(), fx.ds.graph.num_nodes(),
                  CompatKindName(kind), UserPolicyName(up), seed_threads,
                  Rate(tasks.size(), seconds));
      if (json != nullptr) {
        json->BeginObject();
        json->Field("bench", "micro_team");
        json->Field("experiment", "view_seed_threads");
        json->Field("workload", workload);
        json->Field("n", fx.ds.graph.num_nodes());
        json->Field("kind", CompatKindName(kind));
        json->Field("policy", UserPolicyName(up));
        json->Field("tasks", static_cast<uint64_t>(tasks.size()));
        json->Field("task_size", task_size);
        json->Field("max_seeds", max_seeds);
        json->Field("seed_threads", seed_threads);
        json->Field("view_seconds", seconds);
        json->Field("view_tasks_per_sec", Rate(tasks.size(), seconds));
        json->Field("identical", true);
        json->Field("oracle_fallbacks", fallbacks);
        bench::HardwareFields(json);
        json->EndObject();
      }
    }
  }
}

// The headline comparison on the Epinions-scale fixture, then once more
// on LargeGnm with a capped seed set.
void RunViewVsOracle(bool quick, uint32_t num_tasks, uint32_t task_size,
                     uint32_t max_seeds, uint32_t top_pool,
                     bench::JsonArrayWriter* json) {
  const std::vector<CompatKind> kinds =
      quick ? std::vector<CompatKind>{CompatKind::kSPM}
            : std::vector<CompatKind>{CompatKind::kSPM, CompatKind::kNNE};
  const std::vector<UserPolicy> policies =
      quick ? std::vector<UserPolicy>{UserPolicy::kMinDistance}
            : std::vector<UserPolicy>{UserPolicy::kMinDistance,
                                      UserPolicy::kMostCompatible};

  std::printf(
      "greedy Form: task-local dense view vs oracle path "
      "(dense-skill tasks of size %u, single thread)\n"
      "%8s %6s %5s %15s %12s %12s %9s %9s\n",
      task_size, "graph", "n", "kind", "policy", "oracle t/s", "view t/s",
      "speedup", "solved");
  for (CompatKind kind : kinds) {
    CompareOnFixture(SharedFixture(kind), kind, "dense_skills", policies,
                     num_tasks, task_size, max_seeds, top_pool,
                     /*seed_sweep=*/true, json);
  }
  // MinDistance only: MostCompatible scores every compatible candidate by
  // its full row, which here means thousands of n-length rows per task.
  for (CompatKind kind : kinds) {
    Fixture large(LargeGnm(), kind);
    CompareOnFixture(large, kind, "gnm_dense_skills",
                     {UserPolicy::kMinDistance}, quick ? 2 : 6, task_size,
                     /*max_seeds=*/16, top_pool, /*seed_sweep=*/false, json);
  }
}

// ---------------------------------------------------------------------------
// Google-Benchmark suite
// ---------------------------------------------------------------------------

#ifdef TFSN_HAVE_GBENCH

void BM_GreedyForm(benchmark::State& state) {
  auto kind = static_cast<CompatKind>(state.range(0));
  auto user_policy = static_cast<UserPolicy>(state.range(1));
  auto path = static_cast<GreedyEvalPath>(state.range(2));
  Fixture& fx = SharedFixture(kind);
  GreedyTeamFormer former(fx.oracle.get(), fx.ds.skills, fx.index.get(),
                          EvalParams(user_policy, path, 10, 1));
  Rng rng(11);
  uint64_t solved = 0, total = 0;
  for (auto _ : state) {
    Task task = RandomTask(fx.ds.skills, 5, &rng);
    TeamResult r = former.Form(task, &rng);
    solved += r.found;
    ++total;
    benchmark::DoNotOptimize(r);
  }
  state.counters["solved_frac"] =
      total == 0 ? 0.0 : static_cast<double>(solved) / total;
}
BENCHMARK(BM_GreedyForm)
    ->ArgNames({"kind", "policy", "path"})
    ->Args({static_cast<int>(CompatKind::kSPM),
            static_cast<int>(UserPolicy::kMinDistance),
            static_cast<int>(GreedyEvalPath::kView)})
    ->Args({static_cast<int>(CompatKind::kSPM),
            static_cast<int>(UserPolicy::kMinDistance),
            static_cast<int>(GreedyEvalPath::kOracle)})
    ->Args({static_cast<int>(CompatKind::kSPM),
            static_cast<int>(UserPolicy::kMostCompatible),
            static_cast<int>(GreedyEvalPath::kView)})
    ->Args({static_cast<int>(CompatKind::kSPM),
            static_cast<int>(UserPolicy::kRandom),
            static_cast<int>(GreedyEvalPath::kView)})
    ->Args({static_cast<int>(CompatKind::kNNE),
            static_cast<int>(UserPolicy::kMinDistance),
            static_cast<int>(GreedyEvalPath::kView)})
    ->Args({static_cast<int>(CompatKind::kSBPH),
            static_cast<int>(UserPolicy::kMinDistance),
            static_cast<int>(GreedyEvalPath::kView)});

void BM_ExactSolver(benchmark::State& state) {
  Rng graph_rng(13);
  SignedGraph g =
      RandomConnectedGnm(static_cast<uint32_t>(state.range(0)),
                         static_cast<uint64_t>(state.range(0)) * 3, 0.25,
                         &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 12;
  SkillAssignment sa = ZipfSkills(static_cast<uint32_t>(state.range(0)), sp,
                                  &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kSPM);
  Rng rng(15);
  for (auto _ : state) {
    Task task = RandomTask(sa, 3, &rng);
    benchmark::DoNotOptimize(SolveExact(oracle.get(), sa, task));
  }
}
BENCHMARK(BM_ExactSolver)->Arg(20)->Arg(40)->Arg(80);

void BM_RarestFirst(benchmark::State& state) {
  Fixture& fx = SharedFixture(CompatKind::kNNE);
  Rng rng(17);
  for (auto _ : state) {
    Task task = RandomTask(fx.ds.skills, 5, &rng);
    benchmark::DoNotOptimize(RarestFirst(fx.ds.graph, fx.ds.skills, task));
  }
}
BENCHMARK(BM_RarestFirst);

void BM_SkillIndexBuild(benchmark::State& state) {
  Fixture& fx = SharedFixture(CompatKind::kSPM);
  for (auto _ : state) {
    Rng rng(19);
    SkillCompatibilityIndex index(fx.oracle.get(), fx.ds.skills,
                                  static_cast<uint32_t>(state.range(0)), &rng);
    benchmark::DoNotOptimize(index.Degree(0));
  }
}
BENCHMARK(BM_SkillIndexBuild)->Arg(50)->Arg(200);

#endif  // TFSN_HAVE_GBENCH

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  const bool quick = flags.GetBool("quick");
  const std::string json_path = flags.GetString("json");
#ifdef TFSN_HAVE_GBENCH
  const bool view = flags.GetBool("view") || quick || !json_path.empty();
#else
  // Without Google Benchmark the view-vs-oracle sweep is the whole suite.
  const bool view = true;
#endif
  tfsn::g_fixture_scale = flags.GetDouble("scale", quick ? 0.08 : 0.12);

  if (view) {
    tfsn::bench::JsonArrayWriter json;
    tfsn::RunViewVsOracle(
        quick, static_cast<uint32_t>(flags.GetInt("tasks", quick ? 15 : 25)),
        static_cast<uint32_t>(flags.GetInt("task_size", 5)),
        static_cast<uint32_t>(flags.GetInt("max_seeds", 0)),
        static_cast<uint32_t>(flags.GetInt("top_pool", 10)),
        json_path.empty() ? nullptr : &json);
    if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
    if (quick) return 0;
  }

#ifdef TFSN_HAVE_GBENCH
  // Strip the custom flags; Google Benchmark rejects unknown --flags.
  auto is_custom = [](const char* a) {
    for (const char* name : {"--json", "--quick", "--view", "--tasks",
                             "--task_size", "--max_seeds", "--scale",
                             "--top_pool"}) {
      const size_t len = std::strlen(name);
      if (std::strncmp(a, name, len) == 0 &&
          (a[len] == '\0' || a[len] == '=')) {
        return true;
      }
    }
    return false;
  };
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (is_custom(argv[i])) {
      // Flags also accepts the "--name value" form: drop the value token
      // along with the flag.
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        ++i;
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#endif
  return 0;
}
