// Serving-layer throughput harness: one Form per request through the
// server, on a flat and on a tiered row cache.
//
//   serve_throughput --quick [--json=BENCH_serve_throughput.json]
//   serve_throughput [--scale=0.12] [--workers=2] [--requests=400]
//                    [--task-size=3] [--zipf=1.0] [--max-seeds=16]
//                    [--qps=0] [--seed=1] [--json=...] [--sweep]
//                    [--spill-dir=D] [--prewarm-frac=1.0]
//                    [--deadline-ms=0]
//
// Every experiment serves the *same* deterministic Zipf request stream
// on the Epinions-scale fixture through a TeamFormationServer over one
// shared, budget-constrained row cache (the budget is a fraction of the
// stream's row working set — see HarnessConfig::cache_fraction):
//
//   * compression — the measured dense-vs-encoded row ratio over the
//     stream's working set;
//   * burst — the whole stream submitted up front (peak service rate),
//     once on the flat cache brought to its LRU steady state by a warm
//     pass, once on a fresh tiered cache at the same byte budget
//     (compressed rows, a disk spill tier under --spill-dir or a private
//     temp dir removed on exit, and a Zipf prewarm in place of the warm
//     pass);
//   * open_loop — Poisson arrivals at --qps (default 60% of the flat
//     burst throughput), latency percentiles under partial load;
//   * overload_deadline — the whole stream under a per-request SLO with
//     queue-tier shedding (see below);
//   * budget_sweep (--sweep) — a hit-rate-vs-budget curve (10/30/100% of
//     the working set × {flat, tiered}).
//
// Every response is checked bit-identical against the direct
// GreedyTeamFormer path before any number is reported. Each JSON row
// records the host's nproc, compiler and build type.
//
// JSON schema: README, "Bench JSON output".

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/compat/row_codec.h"
#include "src/compat/row_spill.h"
#include "src/compat/skill_index.h"
#include "src/data/datasets.h"
#include "src/serve/server.h"
#include "src/serve/workload.h"
#include "src/team/greedy.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace tfsn {
namespace {

using serve::ServerMetrics;
using serve::ServerOptions;
using serve::TeamFormationServer;
using serve::TeamRequest;
using serve::WorkloadResult;

struct HarnessConfig {
  double scale = 0.12;
  uint32_t workers = 2;
  uint32_t requests = 400;
  uint32_t task_size = 3;
  double zipf = 1.0;
  uint32_t max_seeds = 16;
  double qps = 0;  // 0 = auto (60% of the measured flat burst throughput)
  /// Shared row-cache budget as a fraction of the stream's row working
  /// set: the bytes of the rows a direct, prefetch-free Form per request
  /// reads. At full Epinions scale (~145 KB a row) the working set
  /// dwarfs any realistic cache, so the scaled-down fixture must scale
  /// the cache budget down with it to preserve the serving economics —
  /// an unconstrained cache at toy scale would measure nothing but
  /// allocator noise. Override with --cache-mb for an absolute budget.
  double cache_fraction = 0.3;
  size_t cache_mb = 0;  // 0 = use cache_fraction
  uint64_t seed = 1;
  /// Holder fraction PrewarmZipfHead computes for the tiered burst mode.
  double prewarm_frac = 1.0;
  /// Spill-tier directory ("" = private temp dir, removed on exit).
  std::string spill_dir;
  /// Also run the hit-rate-vs-budget sweep (6 extra burst runs).
  bool sweep = false;
  /// SLO budget for the overload experiment, in milliseconds. 0 = auto:
  /// sized so only ~a quarter of the burst fits inside the budget at the
  /// measured flat burst throughput — overload by construction.
  double deadline_ms = 0;
};

GreedyParams ServeGreedyParams(const HarnessConfig& config) {
  GreedyParams params;
  params.skill_policy = SkillPolicy::kLeastCompatible;
  params.user_policy = UserPolicy::kMinDistance;
  params.max_seeds = config.max_seeds;
  return params;
}

ServerOptions MakeServerOptions(const HarnessConfig& config) {
  ServerOptions options;
  options.workers = config.workers;
  // Sized for the whole stream: the burst experiment submits every
  // request up front to measure peak service throughput.
  options.queue_capacity = config.requests + 1;
  options.greedy = ServeGreedyParams(config);
  return options;
}

double MsOf(uint64_t us) { return static_cast<double>(us) / 1000.0; }

// Bit-identity check against the direct former. Shed (DeadlineExceeded)
// and degraded responses are exempt by contract — degradation may trade
// quality for latency — but every successful full-path response must
// match exactly. `expect_all` additionally requires that every request
// was served successfully (the deadline-free runs).
void VerifyAgainstReference(const std::vector<TeamResult>& reference,
                            const WorkloadResult& run, const char* mode,
                            bool expect_all = true) {
  if (expect_all && run.completed != reference.size()) {
    std::fprintf(stderr, "FATAL: %s served %llu of %zu requests\n", mode,
                 static_cast<unsigned long long>(run.completed),
                 reference.size());
    std::abort();
  }
  for (const serve::TeamResponse& resp : run.responses) {
    if (!resp.status.ok() || resp.degraded) continue;
    const TeamResult& want = reference[resp.id];
    const TeamResult& got = resp.result;
    if (got.found != want.found || got.members != want.members ||
        got.cost != want.cost || got.objective != want.objective) {
      std::fprintf(stderr,
                   "FATAL: %s diverged from the direct former on request "
                   "%llu\n",
                   mode, static_cast<unsigned long long>(resp.id));
      std::abort();
    }
  }
}

void EmitCommon(bench::JsonArrayWriter* json, const Dataset& ds,
                const HarnessConfig& config) {
  json->Field("bench", "serve_throughput");
  bench::HardwareFields(json);
  json->Field("n", ds.graph.num_nodes());
  json->Field("edges", ds.graph.num_edges());
  json->Field("kind", "SPM");
  json->Field("workers", config.workers);
  json->Field("requests", config.requests);
  json->Field("task_size", config.task_size);
  json->Field("zipf", config.zipf);
  json->Field("max_seeds", config.max_seeds);
}

void EmitCacheShape(bench::JsonArrayWriter* json, size_t working_set_bytes,
                    size_t cache_budget_bytes) {
  json->Field("working_set_mb",
              static_cast<double>(working_set_bytes) / (1 << 20));
  json->Field("cache_budget_mb",
              static_cast<double>(cache_budget_bytes) / (1 << 20));
}

void EmitLatency(bench::JsonArrayWriter* json, const ServerMetrics& metrics) {
  json->Field("p50_ms", MsOf(metrics.total_us.ValueAtQuantile(0.50)));
  json->Field("p95_ms", MsOf(metrics.total_us.ValueAtQuantile(0.95)));
  json->Field("p99_ms", MsOf(metrics.total_us.ValueAtQuantile(0.99)));
  json->Field("mean_ms", metrics.total_us.Mean() / 1000.0);
  json->Field("service_p50_ms", MsOf(metrics.service_us.ValueAtQuantile(0.50)));
  json->Field("queue_p50_ms", MsOf(metrics.queue_us.ValueAtQuantile(0.50)));
}

void EmitServing(bench::JsonArrayWriter* json, const ServerMetrics& metrics,
                 const RowCache::StatsSnapshot& cache_window) {
  json->Field("full_path", metrics.batches);
  json->Field("on_view", metrics.shared_view_batches);
  json->Field("oracle_fallbacks", metrics.fallback_batches);
  json->Field("cache_hit_rate", cache_window.HitRate());
  json->Field("cache_lookups", cache_window.lookups());
  // Tier counters (all zero on a flat cache; see README schema notes).
  json->Field("compressed_mb",
              static_cast<double>(cache_window.compressed_bytes) / (1 << 20));
  json->Field("decodes", cache_window.decodes);
  json->Field("decode_ms", static_cast<double>(cache_window.decode_ns) / 1e6);
  json->Field("spill_reads", cache_window.spill_reads);
  json->Field("spill_writes", cache_window.spill_writes);
}

int Run(const HarnessConfig& config, bench::JsonArrayWriter* json) {
  DatasetOptions ds_options;
  ds_options.scale = config.scale;
  ds_options.seed = 2020;
  Dataset ds = MakeEpinions(ds_options);
  std::printf("fixture: %s n=%u edges=%llu\n", ds.name.c_str(),
              ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()));

  // The skill index is shared by every mode (it only drives the
  // LeastCompatible skill order and is deterministic in its seed).
  auto index_cache = std::make_shared<RowCache>();
  auto index_oracle =
      MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, index_cache);
  Rng index_rng(9);
  SkillCompatibilityIndex index(index_oracle.get(), ds.skills, 200, &index_rng);

  serve::WorkloadOptions wl;
  wl.task_size = config.task_size;
  wl.zipf_exponent = config.zipf;
  wl.seed = config.seed;
  wl.num_requests = config.requests;
  const std::vector<TeamRequest> requests = GenerateRequests(ds.skills, wl);

  // Direct reference pass on a fresh, unbounded cache: every served
  // response must match it bit for bit, and the rows it inserts are the
  // stream's row working set — exactly the rows a prefetch-free Form per
  // request reads, which is what the server does.
  std::vector<TeamResult> reference;
  std::vector<NodeId> touched;
  size_t working_set_bytes = 0;
  {
    RowCacheOptions unbounded;
    unbounded.max_bytes = 0;
    auto cache = std::make_shared<RowCache>(unbounded);
    auto oracle = MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, cache);
    GreedyParams params = ServeGreedyParams(config);
    params.prefetch_threads = 0;
    GreedyTeamFormer former(oracle.get(), ds.skills, &index, params);
    reference.reserve(requests.size());
    for (const TeamRequest& req : requests) {
      Rng rng(req.rng_seed);
      reference.push_back(former.Form(req.task, &rng));
    }
    for (NodeId q = 0; q < ds.graph.num_nodes(); ++q) {
      if (oracle->PeekRow(q) != nullptr) touched.push_back(q);
    }
    working_set_bytes = cache->stats().bytes_in_use;
  }
  const size_t row_bytes = static_cast<size_t>(ds.graph.num_nodes()) * 5;

  // One shared, *budget-constrained* row cache serves every flat run (see
  // HarnessConfig::cache_fraction: serving heavy traffic means the row
  // working set does not fit — SPM rows are counting BFS traversals of
  // ~100 µs each, and recomputing them on eviction-driven misses is the
  // dominant steady-state cost). A warm pass first brings the LRU to its
  // steady state so no run pays one-time cold-start costs inside its
  // window; per-window hit rates come from lock-free snapshot deltas.
  RowCacheOptions cache_options;
  cache_options.max_bytes =
      config.cache_mb > 0
          ? config.cache_mb << 20
          : std::max<size_t>(
                row_bytes * 8,
                static_cast<size_t>(static_cast<double>(working_set_bytes) *
                                    config.cache_fraction));
  auto warm_cache = std::make_shared<RowCache>(cache_options);
  {
    auto oracle =
        MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, warm_cache);
    Timer warm_timer;
    oracle->StreamRows(touched, /*threads=*/0,
                       [](size_t, const CompatibilityOracle::Row&) {});
    std::printf(
        "working set %zu rows (%.1f MB), cache budget %.1f MB, "
        "prewarmed in %.2f s\n",
        touched.size(),
        static_cast<double>(working_set_bytes) / (1 << 20),
        static_cast<double>(cache_options.max_bytes) / (1 << 20),
        warm_timer.Seconds());
  }

  // Spill-tier root for the tiered runs: per-run subdirectories so each
  // experiment starts from an empty store. A private temp dir (removed
  // below) keeps the default hermetic; CI passes an explicit --spill-dir.
  std::string spill_root = config.spill_dir;
  bool owns_spill_root = false;
  if (spill_root.empty()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "tfsn-serve-spill-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "FATAL: cannot create a spill temp dir\n");
      return 1;
    }
    spill_root.assign(buf.data());
    owns_spill_root = true;
  }

  // Measured compression over the stream's working set: stream every
  // touched row and compare the dense in-memory footprint against the
  // encoded blob. (Runs on the shared warm cache — in effect a second
  // warm pass, so the LRU steady state the burst runs inherit is
  // unchanged.)
  {
    auto oracle =
        MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, warm_cache);
    size_t dense_bytes = 0;
    size_t encoded_bytes = 0;
    oracle->StreamRows(
        touched, /*threads=*/0,
        [&dense_bytes, &encoded_bytes](size_t, const CompatibilityOracle::Row&
                                                   row) {
          dense_bytes += DenseRowBytes(row);
          encoded_bytes += EncodeRow(row).size();
        });
    const double ratio =
        encoded_bytes > 0 ? static_cast<double>(dense_bytes) / encoded_bytes
                          : 0;
    std::printf("compression: dense %.1f MB -> encoded %.1f MB (%.1fx)\n",
                static_cast<double>(dense_bytes) / (1 << 20),
                static_cast<double>(encoded_bytes) / (1 << 20), ratio);
    if (json != nullptr) {
      json->BeginObject();
      json->Field("experiment", "compression");
      EmitCommon(json, ds, config);
      json->Field("rows", touched.size());
      json->Field("dense_mb", static_cast<double>(dense_bytes) / (1 << 20));
      json->Field("encoded_mb",
                  static_cast<double>(encoded_bytes) / (1 << 20));
      json->Field("compression_ratio", ratio);
      json->EndObject();
    }
  }

  // Saturated throughput, flat vs tiered, equal workers. The burst
  // submits the whole stream up front, so the admission queue stays deep
  // — peak service rate, no client-thread scheduling noise. The flat run
  // serves on the shared steady-state cache; the tiered run on a fresh
  // cache at the *same* byte budget: compressed tier 0 (so the budget
  // holds ~5-10x more rows), disk spill for the overflow, and a
  // Zipf-aware prewarm in place of the flat warm pass. Bit-identity
  // against the direct former is still enforced — the tiers only change
  // where a row's bytes live.
  double throughput[2] = {0, 0};
  double hit_rate[2] = {0, 0};
  const char* mode_names[2] = {"flat", "tiered"};
  for (int mode = 0; mode < 2; ++mode) {
    const bool tiered = mode == 1;
    std::shared_ptr<RowCache> cache = warm_cache;
    serve::PrewarmReport prewarm;
    if (tiered) {
      RowCacheOptions tiered_options = cache_options;
      tiered_options.compress = true;
      tiered_options.spill =
          std::make_shared<RowSpillStore>(spill_root + "/burst");
      cache = std::make_shared<RowCache>(tiered_options);
      auto oracle =
          MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, cache);
      serve::PrewarmOptions pw;
      pw.fraction = config.prewarm_frac;
      pw.zipf_exponent = config.zipf;
      pw.threads = 0;
      prewarm = serve::PrewarmZipfHead(oracle.get(), ds.skills, pw);
      std::printf("tiered prewarm: %llu/%llu holders in %.2f s\n",
                  static_cast<unsigned long long>(prewarm.rows_prewarmed),
                  static_cast<unsigned long long>(prewarm.holders_ranked),
                  prewarm.seconds);
    }
    const RowCache::StatsSnapshot before = cache->SnapshotCounters();
    TeamFormationServer server(ds.graph, ds.skills, &index, CompatKind::kSPM,
                               cache, MakeServerOptions(config));
    WorkloadResult run = RunBurst(&server, requests);
    server.Shutdown();
    const ServerMetrics metrics = server.Metrics();
    const RowCache::StatsSnapshot cache_window = metrics.cache - before;
    VerifyAgainstReference(reference, run, mode_names[mode]);
    throughput[mode] =
        run.seconds > 0 ? static_cast<double>(run.completed) / run.seconds : 0;
    hit_rate[mode] = cache_window.HitRate();
    std::printf(
        "burst %-6s %6.1f req/s  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
        "cache hit %.1f%%\n",
        mode_names[mode], throughput[mode],
        MsOf(metrics.total_us.ValueAtQuantile(0.50)),
        MsOf(metrics.total_us.ValueAtQuantile(0.95)),
        MsOf(metrics.total_us.ValueAtQuantile(0.99)),
        cache_window.HitRate() * 100.0);
    if (tiered) {
      std::printf(
          "             compressed %.2f MB resident, %llu spill reads, "
          "%llu writes, %llu decodes (%.1f ms)\n",
          static_cast<double>(cache_window.compressed_bytes) / (1 << 20),
          static_cast<unsigned long long>(cache_window.spill_reads),
          static_cast<unsigned long long>(cache_window.spill_writes),
          static_cast<unsigned long long>(cache_window.decodes),
          static_cast<double>(cache_window.decode_ns) / 1e6);
    }
    if (json != nullptr) {
      json->BeginObject();
      json->Field("experiment", "burst");
      json->Field("mode", mode_names[mode]);
      EmitCommon(json, ds, config);
      json->Field("tiered", tiered);
      EmitCacheShape(json, working_set_bytes, cache_options.max_bytes);
      json->Field("seconds", run.seconds);
      json->Field("throughput_rps", throughput[mode]);
      EmitLatency(json, metrics);
      EmitServing(json, metrics, cache_window);
      if (tiered) {
        json->Field("prewarm_frac", config.prewarm_frac);
        json->Field("prewarm_rows", prewarm.rows_prewarmed);
        json->Field("prewarm_seconds", prewarm.seconds);
      }
      json->Field("identical", true);
      json->EndObject();
    }
  }

  const double tiered_speedup =
      throughput[0] > 0 ? throughput[1] / throughput[0] : 0;
  std::printf("tiered vs flat speedup: %.2fx (hit rate %.1f%% -> %.1f%%)\n",
              tiered_speedup, hit_rate[0] * 100.0, hit_rate[1] * 100.0);
  if (json != nullptr) {
    json->BeginObject();
    json->Field("experiment", "tiered_speedup");
    EmitCommon(json, ds, config);
    EmitCacheShape(json, working_set_bytes, cache_options.max_bytes);
    json->Field("flat_rps", throughput[0]);
    json->Field("tiered_rps", throughput[1]);
    json->Field("speedup", tiered_speedup);
    json->Field("flat_hit_rate", hit_rate[0]);
    json->Field("tiered_hit_rate", hit_rate[1]);
    json->EndObject();
  }

  // Open-loop latency under partial load on the flat cache: Poisson
  // arrivals below saturation, so the percentiles reflect queueing +
  // service rather than closed-loop pushback.
  const double qps =
      config.qps > 0 ? config.qps : std::max(1.0, throughput[0] * 0.6);
  {
    const RowCache::StatsSnapshot before = warm_cache->SnapshotCounters();
    TeamFormationServer server(ds.graph, ds.skills, &index, CompatKind::kSPM,
                               warm_cache, MakeServerOptions(config));
    Rng arrivals(config.seed + 1);
    WorkloadResult run = RunOpenLoop(&server, requests, qps, &arrivals);
    server.Shutdown();
    const ServerMetrics metrics = server.Metrics();
    const RowCache::StatsSnapshot cache_window = metrics.cache - before;
    std::printf(
        "open loop @ %.1f req/s: %llu served, %llu dropped, p50 %.2f ms  "
        "p95 %.2f ms  p99 %.2f ms\n",
        qps, static_cast<unsigned long long>(run.completed),
        static_cast<unsigned long long>(run.dropped),
        MsOf(metrics.total_us.ValueAtQuantile(0.50)),
        MsOf(metrics.total_us.ValueAtQuantile(0.95)),
        MsOf(metrics.total_us.ValueAtQuantile(0.99)));
    if (json != nullptr) {
      json->BeginObject();
      json->Field("experiment", "open_loop");
      EmitCommon(json, ds, config);
      json->Field("qps_target", qps);
      json->Field("submitted", run.submitted);
      json->Field("dropped", run.dropped);
      json->Field("rejected", run.rejected);
      json->Field("completed", run.completed);
      json->Field("shed", run.shed);
      json->Field("degraded", run.degraded);
      json->Field("seconds", run.seconds);
      EmitLatency(json, metrics);
      EmitServing(json, metrics, cache_window);
      json->EndObject();
    }
  }

  // Overload under a deadline SLO: the whole stream lands at once —
  // far more work than the budget can absorb — with per-request deadlines
  // and queue-tier shedding on. The server's job is to keep the accepted
  // requests inside the budget (EDF + expiry shed + degradation ladder)
  // while the excess is shed with a typed DeadlineExceeded instead of
  // silently queueing toward timeout. The regression contract recorded in
  // the JSON: p99 total latency of *accepted* requests within the budget,
  // nonzero shed, and bit-identity for every successful full-path answer.
  {
    // Auto budget: bracket the overload transition. A budget the
    // degradation ladder absorbs entirely (nothing shed) is too loose and
    // halves; one that sheds the entire burst (nothing accepted) is too
    // tight and bisects back toward the last too-loose bound. The
    // recorded experiment is the first run where accepted and shed
    // traffic coexist — a server genuinely at its SLO boundary. An
    // explicit --deadline-ms pins the budget and runs exactly once.
    double budget_ms =
        config.deadline_ms > 0
            ? config.deadline_ms
            : std::max(5.0, 1000.0 * static_cast<double>(config.requests) /
                                (4.0 * std::max(1.0, throughput[0])));
    double loose_ms = 0;  // known-too-loose upper bound (0 = none yet)
    WorkloadResult run;
    ServerMetrics metrics;
    RowCache::StatsSnapshot cache_window;
    for (int attempt = 0;; ++attempt) {
      std::vector<TeamRequest> deadlined = requests;
      for (TeamRequest& req : deadlined) {
        req.deadline_us = static_cast<uint64_t>(budget_ms * 1000.0);
      }
      ServerOptions options = MakeServerOptions(config);
      options.deadline.shed = serve::ShedMode::kQueue;
      options.deadline.degrade = true;
      // 2% SLO headroom: estimates are EWMAs, and an EDF queue serves the
      // tail just-in-time, so zero slack parks p99 exactly on the budget
      // boundary (see DeadlinePolicy::slack_us).
      options.deadline.slack_us =
          static_cast<uint64_t>(budget_ms * 1000.0 / 50.0);
      const RowCache::StatsSnapshot before = warm_cache->SnapshotCounters();
      TeamFormationServer server(ds.graph, ds.skills, &index, CompatKind::kSPM,
                                 warm_cache, options);
      run = RunBurst(&server, std::move(deadlined));
      server.Shutdown();
      metrics = server.Metrics();
      cache_window = metrics.cache - before;
      const bool overloaded = run.shed + run.rejected > 0;
      const bool alive = run.completed > 0;
      if ((overloaded && alive) || config.deadline_ms > 0 || attempt >= 9) {
        break;
      }
      if (!overloaded) {
        std::printf(
            "overload @ %.1f ms budget absorbed the whole burst; "
            "tightening\n",
            budget_ms);
        loose_ms = budget_ms;
        budget_ms /= 2;
      } else {
        std::printf(
            "overload @ %.1f ms budget shed the whole burst; loosening\n",
            budget_ms);
        budget_ms =
            loose_ms > 0 ? (budget_ms + loose_ms) / 2 : budget_ms * 1.5;
      }
    }
    VerifyAgainstReference(reference, run, "overload_deadline",
                           /*expect_all=*/false);
    // Exact accepted-tail percentile from the raw responses: the metrics
    // histogram is log-bucketed (~6% quantization), too coarse to judge
    // "within budget" at the boundary.
    std::vector<uint64_t> accepted_total;
    for (const serve::TeamResponse& resp : run.responses) {
      if (resp.status.ok()) accepted_total.push_back(resp.total_us);
    }
    std::sort(accepted_total.begin(), accepted_total.end());
    const double accepted_p99_ms =
        accepted_total.empty()
            ? 0
            : MsOf(accepted_total[std::min(accepted_total.size() - 1,
                                           (accepted_total.size() * 99) /
                                               100)]);
    std::printf(
        "overload @ %.1f ms budget: %llu accepted (%llu degraded), "
        "%llu shed, %llu rejected, accepted p99 %.2f ms (%s budget)\n",
        budget_ms, static_cast<unsigned long long>(run.completed),
        static_cast<unsigned long long>(run.degraded),
        static_cast<unsigned long long>(run.shed),
        static_cast<unsigned long long>(run.rejected), accepted_p99_ms,
        accepted_p99_ms <= budget_ms ? "within" : "OVER");
    if (json != nullptr) {
      json->BeginObject();
      json->Field("experiment", "overload_deadline");
      EmitCommon(json, ds, config);
      json->Field("deadline_ms", budget_ms);
      json->Field("shed_mode", "queue");
      json->Field("submitted", run.submitted);
      json->Field("completed", run.completed);
      json->Field("shed", run.shed);
      json->Field("degraded", run.degraded);
      json->Field("rejected", run.rejected);
      json->Field("dropped", run.dropped);
      json->Field("seconds", run.seconds);
      json->Field("accepted_p99_ms", accepted_p99_ms);
      json->Field("p99_within_budget", accepted_p99_ms <= budget_ms);
      EmitLatency(json, metrics);
      EmitServing(json, metrics, cache_window);
      json->Field("identical", true);
      json->EndObject();
    }
  }

  // Hit-rate-vs-budget curve: the same burst at 10/30/100% of the
  // working set, flat vs tiered, each on a fresh cache warmed by one pass
  // over the touched rows (the tiered variants also start from an empty
  // spill store). This is the curve that shows *why* compression moves
  // the throughput needle: at a given budget the tiered cache simply
  // holds more of the working set.
  if (config.sweep) {
    const double budget_fracs[3] = {0.1, 0.3, 1.0};
    for (int tiered = 0; tiered < 2; ++tiered) {
      for (double frac : budget_fracs) {
        RowCacheOptions sweep_options;
        sweep_options.max_bytes = std::max<size_t>(
            row_bytes * 8,
            static_cast<size_t>(static_cast<double>(working_set_bytes) *
                                frac));
        if (tiered == 1) {
          sweep_options.compress = true;
          sweep_options.spill = std::make_shared<RowSpillStore>(
              spill_root + "/sweep-" +
              std::to_string(static_cast<int>(frac * 100)));
        }
        auto cache = std::make_shared<RowCache>(sweep_options);
        {
          auto oracle =
              MakeOracle(ds.graph, CompatKind::kSPM, OracleParams{}, cache);
          oracle->StreamRows(touched, /*threads=*/0,
                             [](size_t, const CompatibilityOracle::Row&) {});
        }
        const RowCache::StatsSnapshot before = cache->SnapshotCounters();
        TeamFormationServer server(ds.graph, ds.skills, &index,
                                   CompatKind::kSPM, cache,
                                   MakeServerOptions(config));
        WorkloadResult run = RunBurst(&server, requests);
        server.Shutdown();
        const ServerMetrics metrics = server.Metrics();
        const RowCache::StatsSnapshot cache_window = metrics.cache - before;
        VerifyAgainstReference(reference, run,
                               tiered == 1 ? "sweep_tiered" : "sweep_flat");
        const double rps =
            run.seconds > 0 ? static_cast<double>(run.completed) / run.seconds
                            : 0;
        std::printf(
            "sweep %-6s budget %3.0f%%: %6.1f req/s  cache hit %.1f%%\n",
            tiered == 1 ? "tiered" : "flat", frac * 100.0, rps,
            cache_window.HitRate() * 100.0);
        if (json != nullptr) {
          json->BeginObject();
          json->Field("experiment", "budget_sweep");
          EmitCommon(json, ds, config);
          json->Field("tiered", tiered == 1);
          json->Field("budget_frac", frac);
          EmitCacheShape(json, working_set_bytes, sweep_options.max_bytes);
          json->Field("seconds", run.seconds);
          json->Field("throughput_rps", rps);
          EmitServing(json, metrics, cache_window);
          json->Field("identical", true);
          json->EndObject();
        }
      }
    }
  }

  if (owns_spill_root) {
    std::error_code ec;
    std::filesystem::remove_all(spill_root, ec);
  }
  return 0;
}

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  const bool quick = flags.GetBool("quick");
  tfsn::HarnessConfig config;
  config.scale = flags.GetDouble("scale", quick ? 0.08 : 0.12);
  config.workers = static_cast<uint32_t>(flags.GetInt("workers", 2));
  config.requests =
      static_cast<uint32_t>(flags.GetInt("requests", quick ? 150 : 400));
  config.task_size = static_cast<uint32_t>(flags.GetInt("task_size", 3));
  config.zipf = flags.GetDouble("zipf", 1.0);
  config.max_seeds = static_cast<uint32_t>(flags.GetInt("max_seeds", 16));
  config.qps = flags.GetDouble("qps", 0);
  config.cache_fraction = flags.GetDouble("cache_frac", 0.3);
  config.cache_mb = static_cast<size_t>(flags.GetInt("cache_mb", 0));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.prewarm_frac = flags.GetDouble("prewarm_frac", 1.0);
  config.spill_dir = flags.GetString("spill_dir");
  config.sweep = flags.GetBool("sweep");
  config.deadline_ms = flags.GetDouble("deadline_ms", 0);

  const std::string json_path = flags.GetString("json");
  tfsn::bench::JsonArrayWriter json;
  const int rc =
      tfsn::Run(config, json_path.empty() ? nullptr : &json);
  if (rc == 0 && !json_path.empty() && !json.WriteFile(json_path)) return 1;
  return rc;
}
