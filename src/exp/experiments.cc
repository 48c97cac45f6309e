#include "src/exp/experiments.h"

#include <algorithm>

#include "src/compat/skill_index.h"
#include "src/compat/stats.h"
#include "src/graph/bfs.h"
#include "src/graph/diameter.h"
#include "src/graph/transform.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/unsigned_tf.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace tfsn {

namespace {

// Exact diameter via all-sources BFS, eccentricities split across workers
// (the per-source sweeps are independent, like the oracle row kernels).
uint32_t ParallelExactDiameter(const SignedGraph& g, uint32_t threads) {
  const uint32_t n = g.num_nodes();
  if (n < 2) return 0;
  std::vector<uint32_t> partial(threads, 0);
  ParallelFor(n, threads, [&](uint32_t worker, uint64_t begin, uint64_t end) {
    uint32_t worst = 0;
    for (uint64_t u = begin; u < end; ++u) {
      worst = std::max(worst, Eccentricity(g, static_cast<NodeId>(u)));
    }
    partial[worker] = worst;
  });
  uint32_t diameter = 0;
  for (uint32_t w : partial) diameter = std::max(diameter, w);
  return diameter;
}

}  // namespace

Table1Row ComputeTable1Row(const Dataset& ds, uint32_t exact_diameter_limit,
                           uint64_t seed, uint32_t threads) {
  Table1Row row;
  row.dataset = ds.name;
  row.users = ds.graph.num_nodes();
  row.edges = ds.graph.num_edges();
  row.neg_edges = ds.graph.num_negative_edges();
  row.neg_fraction = ds.graph.negative_fraction();
  row.skills = ds.skills.num_skills();
  Rng rng(seed);
  threads = ResolveThreads(threads);
  if (ds.graph.num_nodes() <= exact_diameter_limit) {
    row.diameter = threads > 1 ? ParallelExactDiameter(ds.graph, threads)
                               : ExactDiameter(ds.graph);
    row.diameter_exact = true;
  } else {
    row.diameter = EstimateDiameter(ds.graph, /*samples=*/8, &rng);
    row.diameter_exact = false;
  }
  return row;
}

std::vector<Table2Cell> RunTable2(const Dataset& ds,
                                  const Table2Options& options) {
  const bool small = ds.graph.num_nodes() <= options.small_graph_limit;
  const bool include_sbp = options.include_sbp.value_or(small);
  const uint32_t sources = small ? 0 : options.sample_sources;

  std::vector<CompatKind> kinds = {CompatKind::kSPA, CompatKind::kSPM,
                                   CompatKind::kSPO, CompatKind::kSBPH};
  if (include_sbp) kinds.push_back(CompatKind::kSBP);
  kinds.push_back(CompatKind::kNNE);

  // One row cache shared by every relation (keys embed the relation, so
  // kinds never collide): rows computed for the pair statistics — by
  // parallel workers when options.threads != 1 — are reused by the
  // skill-index build instead of being recomputed.
  RowCacheOptions cache_options;
  cache_options.max_bytes = options.cache_bytes;
  auto cache = std::make_shared<RowCache>(cache_options);

  std::vector<Table2Cell> cells;
  for (CompatKind kind : kinds) {
    Timer timer;
    Table2Cell cell;
    cell.kind = kind;
    uint32_t kind_sources =
        kind == CompatKind::kSBP && !small ? options.sbp_sample_sources
                                           : sources;
    auto oracle = MakeOracle(ds.graph, kind, options.oracle, cache);
    Rng rng(options.seed);
    CompatPairStats stats =
        options.threads == 1
            ? ComputeCompatPairStats(oracle.get(), kind_sources, &rng)
            : ComputeCompatPairStatsParallel(ds.graph, kind, options.oracle,
                                             kind_sources, options.seed,
                                             options.threads, cache);
    Rng index_rng(options.seed + 1);
    SkillCompatibilityIndex index(oracle.get(), ds.skills, kind_sources,
                                  &index_rng, options.threads);
    cell.comp_users_pct = stats.compatible_fraction * 100.0;
    cell.comp_skills_pct = index.CompatibleSkillPairFraction() * 100.0;
    cell.avg_distance = stats.avg_distance;
    cell.sources_used = stats.sources_used;
    cell.rows_saturated = stats.rows_saturated;
    cell.seconds = timer.Seconds();
    cells.push_back(cell);
  }
  return cells;
}

namespace {

struct RunningStats {
  uint32_t solved = 0;
  uint32_t total = 0;
  double diameter_sum = 0.0;

  void Record(const TeamResult& result) {
    ++total;
    if (result.found && result.cost != kUnreachable) {
      ++solved;
      diameter_sum += result.cost;
    } else if (result.found) {
      ++solved;  // feasible but some pair has no finite relation distance
    }
  }
  double solved_pct() const {
    return total == 0 ? 0.0 : 100.0 * solved / total;
  }
  double avg_diameter() const {
    return solved == 0 ? 0.0 : diameter_sum / solved;
  }
};

GreedyParams MakeParams(SkillPolicy sp, UserPolicy up,
                        const TeamExperimentOptions& options,
                        uint32_t prefetch_threads) {
  GreedyParams params;
  params.skill_policy = sp;
  params.user_policy = up;
  params.max_seeds = options.max_seeds;
  params.prefetch_threads = prefetch_threads;
  params.seed_threads = options.seed_threads;
  params.eval_path = options.eval_path;
  return params;
}

std::shared_ptr<RowCache> MakeExperimentCache(size_t cache_bytes) {
  RowCacheOptions options;
  options.max_bytes = cache_bytes;
  return std::make_shared<RowCache>(options);
}

}  // namespace

std::vector<Fig2abRow> RunFig2ab(const Dataset& ds,
                                 const TeamExperimentOptions& options) {
  // Shared task list across relations and algorithms, as in the paper.
  Rng task_rng(options.seed);
  std::vector<Task> tasks =
      RandomTasks(ds.skills, options.task_size, options.num_tasks, &task_rng);

  const std::vector<std::pair<std::string, UserPolicy>> algorithms = {
      {"LCMD", UserPolicy::kMinDistance},
      {"LCMC", UserPolicy::kMostCompatible},
      {"RANDOM", UserPolicy::kRandom},
  };

  // One shared row cache across relations, the index builds, the MAX
  // bound, and every former: the rows the index build computes are the
  // same rows the formers stream, so each row is computed once per kind.
  auto cache = MakeExperimentCache(options.cache_bytes);
  const uint32_t prefetch =
      options.threads == 1 ? 0 : ResolveThreads(options.threads);

  std::vector<Fig2abRow> rows;
  for (CompatKind kind : options.kinds) {
    Fig2abRow row;
    row.kind = kind;
    auto oracle = MakeOracle(ds.graph, kind, options.oracle, cache);
    Rng index_rng(options.seed + 11);
    SkillCompatibilityIndex index(oracle.get(), ds.skills,
                                  options.index_sample_sources, &index_rng,
                                  options.threads);
    // MAX bound: tasks whose skill pairs are all compatible, checked
    // exactly over holder pairs (the sampled index would undercount).
    // Evaluated through the task-local dense view when the formers use
    // it, so the view's batch-prewarmed rows are shared; the oracle
    // overload gives the bit-identical verdict otherwise.
    uint32_t max_ok = 0;
    for (const Task& task : tasks) {
      std::unique_ptr<TaskCompatView> view;
      if (options.eval_path != GreedyEvalPath::kOracle) {
        view = TaskCompatView::Build(oracle.get(), ds.skills, task,
                                     ResolveThreads(options.threads));
      }
      max_ok += view != nullptr
                    ? TaskSkillsCompatibleExact(*view)
                    : TaskSkillsCompatibleExact(oracle.get(), ds.skills, task);
    }
    row.max_bound_pct = 100.0 * max_ok / tasks.size();

    for (const auto& [name, user_policy] : algorithms) {
      GreedyTeamFormer former(
          oracle.get(), ds.skills, &index,
          MakeParams(SkillPolicy::kLeastCompatible, user_policy, options,
                     prefetch));
      RunningStats stats;
      Rng run_rng(options.seed + 101);
      for (const Task& task : tasks) {
        stats.Record(former.Form(task, &run_rng));
      }
      row.outcomes.push_back(
          {name, stats.solved_pct(), stats.avg_diameter()});
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Fig2cdPoint> RunFig2cd(const Dataset& ds,
                                   const std::vector<uint32_t>& task_sizes,
                                   const TeamExperimentOptions& options) {
  auto cache = MakeExperimentCache(options.cache_bytes);
  const uint32_t prefetch =
      options.threads == 1 ? 0 : ResolveThreads(options.threads);
  std::vector<Fig2cdPoint> points;
  for (CompatKind kind : options.kinds) {
    auto oracle = MakeOracle(ds.graph, kind, options.oracle, cache);
    Rng index_rng(options.seed + 11);
    SkillCompatibilityIndex index(oracle.get(), ds.skills,
                                  options.index_sample_sources, &index_rng,
                                  options.threads);
    GreedyTeamFormer former(
        oracle.get(), ds.skills, &index,
        MakeParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance,
                   options, prefetch));
    for (uint32_t k : task_sizes) {
      Rng task_rng(options.seed + k);  // same tasks for every relation
      std::vector<Task> tasks =
          RandomTasks(ds.skills, k, options.num_tasks, &task_rng);
      RunningStats stats;
      Rng run_rng(options.seed + 101);
      for (const Task& task : tasks) {
        stats.Record(former.Form(task, &run_rng));
      }
      points.push_back({kind, k, stats.solved_pct(), stats.avg_diameter()});
    }
  }
  return points;
}

std::vector<Table3Row> RunTable3(const Dataset& ds,
                                 const Table3Options& options) {
  Rng task_rng(options.seed);
  std::vector<Task> tasks =
      RandomTasks(ds.skills, options.task_size, options.num_tasks, &task_rng);

  const std::vector<std::pair<std::string, SignedGraph>> networks = [&] {
    std::vector<std::pair<std::string, SignedGraph>> nets;
    nets.emplace_back("Ignore sign", IgnoreSigns(ds.graph));
    nets.emplace_back("Delete negative", DeleteNegativeEdges(ds.graph));
    return nets;
  }();

  // One oracle per relation, shared across both unsigned networks (teams
  // are judged on the original signed graph), all backed by one row cache.
  auto cache = MakeExperimentCache(options.cache_bytes);
  std::vector<std::unique_ptr<CompatibilityOracle>> oracles;
  for (CompatKind kind : options.kinds) {
    oracles.push_back(MakeOracle(ds.graph, kind, options.oracle, cache));
  }

  std::vector<Table3Row> rows;
  for (const auto& [name, network] : networks) {
    Table3Row row;
    row.network = name;
    std::vector<uint32_t> compatible(options.kinds.size(), 0);
    for (const Task& task : tasks) {
      UnsignedTeamResult team = RarestFirst(network, ds.skills, task);
      if (!team.found) continue;
      ++row.teams_returned;
      for (size_t i = 0; i < options.kinds.size(); ++i) {
        compatible[i] += TeamCompatible(oracles[i].get(), team.members);
      }
    }
    for (size_t i = 0; i < options.kinds.size(); ++i) {
      double pct = row.teams_returned == 0
                       ? 0.0
                       : 100.0 * compatible[i] / row.teams_returned;
      row.compatible_pct.emplace_back(options.kinds[i], pct);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tfsn
