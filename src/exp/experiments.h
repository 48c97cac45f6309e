// Experiment runners regenerating the paper's tables and figures.
// Each bench binary in bench/ is a thin wrapper over one of these.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/data/datasets.h"
#include "src/team/greedy.h"
#include "src/util/rng.h"

namespace tfsn {

// ---------------------------------------------------------------------------
// Table 1 — dataset statistics
// ---------------------------------------------------------------------------

struct Table1Row {
  std::string dataset;
  uint32_t users = 0;
  uint64_t edges = 0;
  uint64_t neg_edges = 0;
  double neg_fraction = 0.0;
  uint32_t diameter = 0;  ///< exact when n is small, double-sweep estimate else
  bool diameter_exact = false;
  uint32_t skills = 0;
};

/// Computes the Table 1 row for a dataset. Diameter is exact for graphs up
/// to `exact_diameter_limit` nodes, else a sampled double-sweep estimate.
/// The exact all-sources eccentricity sweep is parallelized over `threads`
/// workers (1 = serial, 0 = hardware concurrency / TFSN_THREADS); the
/// result is thread-count independent.
Table1Row ComputeTable1Row(const Dataset& ds, uint32_t exact_diameter_limit,
                           uint64_t seed, uint32_t threads = 1);

// ---------------------------------------------------------------------------
// Table 2 — comparison of compatibility relations
// ---------------------------------------------------------------------------

struct Table2Cell {
  CompatKind kind;
  double comp_users_pct = 0.0;   ///< % of node pairs compatible
  double comp_skills_pct = 0.0;  ///< % of (non-empty) skill pairs compatible
  double avg_distance = 0.0;     ///< mean relation distance, compatible pairs
  uint32_t sources_used = 0;
  /// Sources whose row saturated a shortest-path counter (SP relations
  /// only; see CompatRow::saturated). Nonzero flags possibly distorted
  /// SPM majority answers.
  uint64_t rows_saturated = 0;
  double seconds = 0.0;
};

struct Table2Options {
  /// Sources sampled for the pair statistics (0 = all; exact).
  uint32_t sample_sources = 300;
  /// Sources for the SBP exact relation (expensive; 0 = all).
  uint32_t sbp_sample_sources = 60;
  /// Run the exact SBP relation at all (the paper does so only for
  /// Slashdot). Enabled automatically when the graph is small.
  std::optional<bool> include_sbp;
  /// Graphs up to this many nodes always use all sources and include SBP.
  uint32_t small_graph_limit = 500;
  /// Worker threads for the pair statistics and for skill-index row
  /// computation (1 = serial; 0 = hardware concurrency / TFSN_THREADS).
  /// All workers share one row cache, so rows computed for the pair
  /// statistics are reused by the skill-index build.
  uint32_t threads = 1;
  /// Byte budget of the shared row cache.
  size_t cache_bytes = 256ull << 20;
  OracleParams oracle;
  uint64_t seed = 7;
};

/// Runs the Table 2 comparison (SPA, SPM, SPO, SBPH, [SBP,] NNE).
std::vector<Table2Cell> RunTable2(const Dataset& ds,
                                  const Table2Options& options);

// ---------------------------------------------------------------------------
// Figure 2(a)/(b) — team formation algorithm comparison (fixed k)
// ---------------------------------------------------------------------------

struct AlgorithmOutcome {
  std::string algorithm;  // "LCMD", "LCMC", "RANDOM"
  double solved_pct = 0.0;
  double avg_diameter = 0.0;  ///< over solved instances
};

struct Fig2abRow {
  CompatKind kind;
  std::vector<AlgorithmOutcome> outcomes;
  double max_bound_pct = 0.0;  ///< MAX: tasks whose skills are all compatible
};

struct TeamExperimentOptions {
  uint32_t task_size = 5;
  uint32_t num_tasks = 50;
  uint32_t max_seeds = 10;        ///< seed cap per task (paper: all holders)
  uint32_t index_sample_sources = 200;  ///< skill-index build sampling
  std::vector<CompatKind> kinds = {CompatKind::kSPA, CompatKind::kSPM,
                                   CompatKind::kSPO, CompatKind::kSBPH,
                                   CompatKind::kNNE};
  /// Workers for skill-index row computation and greedy row prefetching
  /// (1 = serial; 0 = hardware concurrency / TFSN_THREADS). One shared
  /// row cache serves the index build, the MAX bound, and every former, so
  /// results are thread-count independent.
  uint32_t threads = 1;
  /// Workers for each former's seed loop (GreedyParams::seed_threads;
  /// 1 = serial, 0 = auto). Results are bit-identical for every setting.
  uint32_t seed_threads = 1;
  /// Evaluation path for the formers and the MAX bound: kView (the dense
  /// view; the oracle only when the view cannot be built) or kOracle.
  GreedyEvalPath eval_path = GreedyEvalPath::kView;
  /// Byte budget of the shared row cache.
  size_t cache_bytes = 256ull << 20;
  OracleParams oracle;
  uint64_t seed = 7;
};

/// Runs the Figure 2(a)/(b) comparison: LCMD vs LCMC vs RANDOM per relation
/// plus the MAX skill-compatibility bound.
std::vector<Fig2abRow> RunFig2ab(const Dataset& ds,
                                 const TeamExperimentOptions& options);

// ---------------------------------------------------------------------------
// Figure 2(c)/(d) — varying task size with LCMD
// ---------------------------------------------------------------------------

struct Fig2cdPoint {
  CompatKind kind;
  uint32_t task_size = 0;
  double solved_pct = 0.0;
  double avg_diameter = 0.0;
};

/// Runs the Figure 2(c)/(d) sweep: LCMD success rate and diameter for each
/// task size in `task_sizes`, per relation.
std::vector<Fig2cdPoint> RunFig2cd(const Dataset& ds,
                                   const std::vector<uint32_t>& task_sizes,
                                   const TeamExperimentOptions& options);

// ---------------------------------------------------------------------------
// Table 3 — comparison with unsigned team formation
// ---------------------------------------------------------------------------

struct Table3Row {
  std::string network;  // "Ignore sign" / "Delete negative"
  /// % of returned teams that are fully compatible, per relation.
  std::vector<std::pair<CompatKind, double>> compatible_pct;
  uint32_t teams_returned = 0;
};

struct Table3Options {
  uint32_t task_size = 5;
  uint32_t num_tasks = 50;
  std::vector<CompatKind> kinds = {CompatKind::kSPA, CompatKind::kSPM,
                                   CompatKind::kSPO, CompatKind::kSBPH,
                                   CompatKind::kNNE};
  /// Byte budget of the row cache shared by the per-relation oracles.
  size_t cache_bytes = 256ull << 20;
  OracleParams oracle;
  uint64_t seed = 7;
};

/// Runs the Table 3 comparison: RarestFirst on the ignore-sign and
/// delete-negative unsigned networks, compatibility measured on the signed
/// graph. (The paper's SBP column is approximated by SBPH on large graphs.)
std::vector<Table3Row> RunTable3(const Dataset& ds,
                                 const Table3Options& options);

}  // namespace tfsn
