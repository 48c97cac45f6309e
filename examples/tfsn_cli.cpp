// tfsn_cli: command-line front end to the library.
//
//   tfsn_cli stats   --dataset=slashdot | --graph=g.edges
//   tfsn_cli compat  --dataset=slashdot --u=3 --v=17 [--relation=spm]
//   tfsn_cli team    --dataset=epinions --scale=0.05 --skills=1,4,9
//                    [--relation=spm] [--algorithm=lcmd|lcmc|random] [--topk=3]
//                    [--shards=S] [--shard-strategy=hash|range]  (alias: form)
//   tfsn_cli serve   --dataset=epinions --scale=0.08 --qps=50 --duration=5
//                    [--workers=2] [--seed=1] [--replay]
//                    [--compress=on] [--spill-dir=D] [--prewarm-frac=0.1]
//                    [--deadline-ms=B] [--shed=off|admission|queue]
//                    [--fault=point:schedule[,point:schedule...]]
//   tfsn_cli export  --dataset=wikipedia --out=wiki.edges --skills_out=wiki.skills
//
// Global performance flags: --threads=N computes oracle rows (and the
// stats diameter sweep) on N workers sharing one row cache (0 = hardware
// concurrency / TFSN_THREADS); --cache-mb=M bounds that cache's byte
// budget (default 256). The cache is a tiered row store (row_cache.h):
// --compress=on keeps rows compressed in memory (the budget then buys
// proportionally more rows), --spill-dir=D spills evictions to an on-disk
// store consulted before recomputing, and `serve --prewarm-frac=F`
// bulk-computes the hottest F of holders before traffic. All three are
// representation/locality knobs only — teams and the --replay digest are
// bit-identical across every combination. `team` additionally takes
// --seed-threads=N to run each formation's seed loop on N workers over
// the task-local dense view (results are identical for every setting) and
// --eval-path=view|oracle to pick the evaluation path: the dense view
// (default; the oracle loop only when the view cannot be built) or the
// pair-by-pair oracle reference. It prints the path taken: `view`,
// `oracle`, or `oracle fallback` when the view could not be built (over
// its byte budget, or an injected fault). `team` and `serve` also print
// the row cache's occupancy: rows resident, MB charged, bytes per row.
//
// Robustness knobs (see README "Robustness"): `serve --deadline-ms=B`
// stamps every generated request with a B-millisecond SLO budget;
// --shed picks the enforcement tier (off = deadlines are advisory,
// admission = reject infeasible deadlines at the front door, queue =
// admission + expired-in-queue shedding + the degradation ladder); and
// --fault=point:schedule arms deterministic fault injection (requires a
// -DTFSN_FAULTS=ON build; exits 2 otherwise). The --replay digest mixes
// only successful, non-degraded responses, so it stays bit-identical
// under injected faults and shed traffic.
//
// Exit codes: 0 success, 1 usage error, 2 no team found / fault
// injection not compiled in.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/exp/experiments.h"
#include "src/skills/skills_io.h"
#include "src/tfsn.h"
#include "src/util/fault_injection.h"

namespace {

using namespace tfsn;

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tfsn_cli <stats|compat|team|form|serve|export> "
               "[--dataset=name|"
               "--graph=file] [options]\n"
               "  stats                      dataset statistics\n"
               "  compat --u=A --v=B         pair compatibility verdicts\n"
               "  team --skills=1,2,3        form a team [--relation=spm]\n"
               "       [--algorithm=lcmd]    lcmd|lcmc|random\n"
               "       [--topk=K]            emit the K best teams\n"
               "       [--shards=S]          sharded engine with S workers\n"
               "                             (alias: form; prints a comm\n"
               "                             summary; teams bit-identical)\n"
               "       [--shard-strategy=hash]  hash|range partitioning\n"
               "  serve                      run the team-formation server\n"
               "       [--qps=50]            open-loop arrival rate\n"
               "       [--duration=5]        seconds of offered load\n"
               "       [--workers=2]         worker pool size\n"
               "       [--seed=1]            workload seed\n"
               "       [--replay]            deterministic burst replay:\n"
               "                             prints a team digest two runs\n"
               "                             reproduce bit for bit\n"
               "       [--prewarm-frac=F]    prewarm the hottest F of\n"
               "                             holders before traffic\n"
               "       [--deadline-ms=B]     per-request SLO budget (0 = none)\n"
               "       [--shed=queue]        off|admission|queue enforcement\n"
               "       [--fault=P:S]         arm fault point P with schedule S\n"
               "                             (off|always|nth:K|every:K|p:P[:S];\n"
               "                             needs -DTFSN_FAULTS=ON)\n"
               "  export --out=F             write graph [--skills_out=G]\n"
               "global: --threads=N row-computation workers (0 = auto)\n"
               "        --cache-mb=M shared row-cache budget (default 256)\n"
               "        --compress=on|off compressed in-cache rows\n"
               "        --spill-dir=D spill evicted rows to disk under D\n"
               "        --seed-threads=N team seed-loop workers (0 = auto)\n"
               "        --eval-path=view|oracle team evaluation path\n");
  return 1;
}

Dataset LoadInput(const Flags& flags) {
  DatasetOptions options;
  options.scale = flags.GetDouble("scale", 1.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2020));
  if (flags.Has("graph")) {
    auto ds = LoadDatasetFromEdgeList(
        flags.GetString("graph"),
        static_cast<uint32_t>(flags.GetInt("num_skills", 500)), options);
    ds.status().CheckOK();
    return std::move(ds).ValueOrDie();
  }
  auto ds = MakeDatasetByName(flags.GetString("dataset", "slashdot"), options);
  ds.status().CheckOK();
  return std::move(ds).ValueOrDie();
}

uint32_t ThreadsOf(const Flags& flags) {
  return static_cast<uint32_t>(flags.GetInt("threads", 1));
}

std::shared_ptr<RowCache> CacheOf(const Flags& flags) {
  RowCacheOptions options;
  // Flags normalizes --cache-mb and --cache_mb to one key.
  options.max_bytes = static_cast<size_t>(flags.GetInt("cache_mb", 256)) << 20;
  // Tiered row store knobs (see row_cache.h). Representation only: teams
  // and the serve digest are bit-identical across every setting.
  const std::string compress = flags.GetString("compress", "off");
  options.compress = compress == "on";
  if (compress != "on" && compress != "off") {
    std::fprintf(stderr, "--compress takes on|off, got '%s'\n",
                 compress.c_str());
    std::exit(1);
  }
  if (flags.Has("spill_dir")) {
    options.spill =
        std::make_shared<RowSpillStore>(flags.GetString("spill_dir"));
    if (!options.spill->ok()) {
      std::fprintf(stderr, "cannot open spill dir '%s'\n",
                   flags.GetString("spill_dir").c_str());
      std::exit(1);
    }
  }
  return std::make_shared<RowCache>(options);
}

// Occupancy of a row cache: rows resident, the bytes its budget charges
// for them, and the mean per row (a flat row charges 1 comp byte plus 1, 2
// or 4 distance bytes per node, so the distance width shows here).
std::string CacheOccupancy(const RowCache& cache) {
  const RowCacheStats stats = cache.stats();
  char line[128];
  std::snprintf(line, sizeof(line), "%zu rows resident, %.1f MB, %.0f B/row",
                stats.rows_in_use, stats.bytes_in_use / (1024.0 * 1024.0),
                stats.rows_in_use == 0
                    ? 0.0
                    : static_cast<double>(stats.bytes_in_use) /
                          static_cast<double>(stats.rows_in_use));
  return line;
}

CompatKind RelationOf(const Flags& flags) {
  CompatKind kind = CompatKind::kSPM;
  std::string name = flags.GetString("relation", "spm");
  if (!ParseCompatKind(name, &kind)) {
    std::fprintf(stderr, "unknown relation '%s'\n", name.c_str());
    std::exit(1);
  }
  return kind;
}

int CmdStats(const Flags& flags) {
  Dataset ds = LoadInput(flags);
  Table1Row row = ComputeTable1Row(ds, 2000, 1, ThreadsOf(flags));
  std::printf("dataset   : %s\n", row.dataset.c_str());
  std::printf("users     : %u\n", row.users);
  std::printf("edges     : %llu (%llu negative, %.1f%%)\n",
              static_cast<unsigned long long>(row.edges),
              static_cast<unsigned long long>(row.neg_edges),
              row.neg_fraction * 100.0);
  std::printf("diameter  : %u%s\n", row.diameter,
              row.diameter_exact ? "" : " (estimate)");
  std::printf("skills    : %u\n", row.skills);
  TriangleCensus census = CountTriangles(ds.graph);
  std::printf("triangles : %llu (%.1f%% balanced)\n",
              static_cast<unsigned long long>(census.total()),
              census.balance_ratio() * 100.0);
  std::printf("balanced  : %s\n",
              CheckBalance(ds.graph).balanced ? "yes" : "no");
  return 0;
}

int CmdCompat(const Flags& flags) {
  if (!flags.Has("u") || !flags.Has("v")) return Usage();
  Dataset ds = LoadInput(flags);
  NodeId u = static_cast<NodeId>(flags.GetInt("u", 0));
  NodeId v = static_cast<NodeId>(flags.GetInt("v", 0));
  if (u >= ds.graph.num_nodes() || v >= ds.graph.num_nodes()) {
    std::fprintf(stderr, "node out of range (n=%u)\n", ds.graph.num_nodes());
    return 1;
  }
  std::printf("pair (%u, %u), plain distance %u\n", u, v,
              BfsDistance(ds.graph, u, v));
  for (CompatKind kind : AllCompatKinds()) {
    if (kind == CompatKind::kSBP && ds.graph.num_nodes() > 2000) {
      std::printf("  %-4s : skipped (graph too large for exact search)\n",
                  CompatKindName(kind));
      continue;
    }
    auto oracle = MakeOracle(ds.graph, kind);
    bool ok = oracle->Compatible(u, v);
    uint32_t d = oracle->Distance(u, v);
    std::printf("  %-4s : %-12s distance %s\n", CompatKindName(kind),
                ok ? "compatible" : "incompatible",
                d == kUnreachable ? "inf" : std::to_string(d).c_str());
  }
  return 0;
}

int CmdTeam(const Flags& flags) {
  if (!flags.Has("skills")) return Usage();
  Dataset ds = LoadInput(flags);
  std::vector<SkillId> wanted;
  for (const std::string& tok : SplitCsv(flags.GetString("skills"))) {
    wanted.push_back(static_cast<SkillId>(std::stoul(tok)));
  }
  Task task(wanted);
  CompatKind kind = RelationOf(flags);
  const uint32_t threads = ThreadsOf(flags);
  // One shared row cache serves the index build, the greedy prefetch, and
  // the per-pair queries of the formation run.
  auto cache = CacheOf(flags);
  auto oracle = MakeOracle(ds.graph, kind, OracleParams{}, cache);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));
  SkillCompatibilityIndex index(
      oracle.get(), ds.skills,
      ds.graph.num_nodes() > 2000 ? 300 : 0, &rng, threads);
  GreedyParams params;
  params.prefetch_threads = threads == 1 ? 0 : ResolveThreads(threads);
  params.seed_threads =
      static_cast<uint32_t>(flags.GetInt("seed_threads", 1));
  std::string path = flags.GetString("eval_path", "view");
  if (path == "oracle") {
    params.eval_path = GreedyEvalPath::kOracle;
  } else if (path != "view") {
    std::fprintf(stderr, "unknown eval path '%s'\n", path.c_str());
    return 1;
  }
  std::string algorithm = flags.GetString("algorithm", "lcmd");
  if (algorithm == "lcmc") {
    params.user_policy = UserPolicy::kMostCompatible;
  } else if (algorithm == "random") {
    params.user_policy = UserPolicy::kRandom;
  } else if (algorithm != "lcmd") {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
    return 1;
  }
  params.max_seeds = static_cast<uint32_t>(flags.GetInt("max_seeds", 25));
  GreedyTeamFormer former(oracle.get(), ds.skills, &index, params);

  // --shards routes the formation through the sharded engine (bit-identical
  // teams; see README "Sharded formation"). Implies --topk=1.
  const uint32_t shards = static_cast<uint32_t>(flags.GetInt("shards", 0));
  if (shards > 0) {
    DistOptions dist_options;
    dist_options.num_shards = shards;
    const std::string strategy = flags.GetString("shard_strategy", "hash");
    if (!ParseShardStrategy(strategy, &dist_options.strategy)) {
      std::fprintf(stderr, "--shard-strategy takes hash|range, got '%s'\n",
                   strategy.c_str());
      return 1;
    }
    dist_options.oracle_factory = OracleFactoryFor(kind);
    DistributedFormer dist(ds.graph, ds.skills, &index, params, dist_options);
    FormCommStats comm;
    const Result<TeamResult> result = dist.Form(task, &rng, &comm);
    if (!result.ok()) {
      std::fprintf(stderr, "sharded formation failed: %s\n",
                   result.status().ToString().c_str());
      return 2;
    }
    if (!result->found) {
      std::printf("no compatible team found under %s\n", CompatKindName(kind));
      return 2;
    }
    std::printf("team #1 (diameter %u):", result->cost);
    for (NodeId member : result->members) std::printf(" %u", member);
    std::printf("\n");
    std::printf("comm: %u shards (%s), %" PRIu64 " steps, %" PRIu64
                " rounds, %" PRIu64 " msgs, %" PRIu64 " ctrl B, %" PRIu64
                " data B, %" PRIu64 " dropped\n",
                shards, ShardStrategyName(dist_options.strategy), comm.steps,
                comm.rounds, comm.comm.messages_sent, comm.comm.control_bytes,
                comm.comm.data_bytes, comm.comm.messages_dropped);
    return 0;
  }

  uint32_t topk = static_cast<uint32_t>(flags.GetInt("topk", 1));
  auto teams = former.FormTopK(task, topk, &rng);
  std::printf("eval path: %s\n",
              params.eval_path == GreedyEvalPath::kOracle ? "oracle"
              : former.oracle_fallbacks() > 0           ? "oracle fallback"
                                                        : "view");
  // Which kernel produced the rows this run computed (index build, prewarm
  // and seed loop): bit-parallel blocks or scalar BFSs, and how many block
  // lanes overflowed SPM's count planes and were recomputed scalar.
  std::printf("rows      : %" PRIu64 " computed, %" PRIu64
              " in blocks, %" PRIu64 " lanes recomputed\n",
              oracle->rows_computed(), oracle->block_rows_computed(),
              oracle->overflow_lanes_recomputed());
  std::printf("row cache : %s\n", CacheOccupancy(*cache).c_str());
  if (teams.empty()) {
    std::printf("no compatible team found under %s\n", CompatKindName(kind));
    return 2;
  }
  for (size_t rank = 0; rank < teams.size(); ++rank) {
    const TeamResult& team = teams[rank];
    std::printf("team #%zu (diameter %u):", rank + 1, team.cost);
    for (NodeId member : team.members) std::printf(" %u", member);
    std::printf("\n");
  }
  return 0;
}

int CmdServe(const Flags& flags) {
  Dataset ds = LoadInput(flags);
  CompatKind kind = RelationOf(flags);
  const uint32_t threads = ThreadsOf(flags);
  auto cache = CacheOf(flags);
  Rng index_rng(static_cast<uint64_t>(flags.GetInt("seed", 1)) + 1);
  auto index_oracle = MakeOracle(ds.graph, kind, OracleParams{}, cache);
  SkillCompatibilityIndex index(
      index_oracle.get(), ds.skills,
      ds.graph.num_nodes() > 2000 ? 300 : 0, &index_rng, threads);

  serve::ServerOptions options;
  options.workers =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt("workers", 2)));
  options.greedy.max_seeds =
      static_cast<uint32_t>(flags.GetInt("max_seeds", 16));
  options.greedy.skill_policy = SkillPolicy::kLeastCompatible;
  // --threads sizes the index build and the --prewarm-frac pass; each
  // served request runs one Form whose rows fill on first touch.

  // Overload-control knobs. --shed picks how far enforcement goes;
  // --deadline-ms stamps the SLO budget onto every generated request.
  const std::string shed = flags.GetString("shed", "queue");
  if (shed == "off") {
    options.deadline.shed = serve::ShedMode::kOff;
  } else if (shed == "admission") {
    options.deadline.shed = serve::ShedMode::kAdmission;
  } else if (shed == "queue") {
    options.deadline.shed = serve::ShedMode::kQueue;
  } else {
    std::fprintf(stderr, "--shed takes off|admission|queue, got '%s'\n",
                 shed.c_str());
    return 1;
  }
  const double deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  if (deadline_ms < 0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0\n");
    return 1;
  }

  // Deterministic fault injection: every --fault=point:schedule pair arms
  // one registered point (the schedule grammar is ParseSchedule's). The
  // registry exists in every build, but the TFSN_FAULT_POINT call sites
  // only evaluate it when the library was compiled with -DTFSN_FAULTS=ON —
  // arming points in a normal build would silently test nothing, so that
  // is a hard error.
  std::vector<std::string> armed_points;
  if (flags.Has("fault")) {
    if (!kFaultsEnabled) {
      std::fprintf(stderr,
                   "--fault requires a -DTFSN_FAULTS=ON build; this binary "
                   "compiled the fault points out\n");
      return 2;
    }
    for (const std::string& spec : SplitCsv(flags.GetString("fault"))) {
      const size_t colon = spec.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= spec.size()) {
        std::fprintf(stderr, "--fault takes point:schedule, got '%s'\n",
                     spec.c_str());
        return 1;
      }
      const std::string point = spec.substr(0, colon);
      FaultSchedule schedule;
      if (!FaultRegistry::ParseSchedule(spec.substr(colon + 1), &schedule)) {
        std::fprintf(stderr, "--fault: bad schedule in '%s'\n", spec.c_str());
        return 1;
      }
      FaultRegistry::Instance().Arm(point, schedule);
      armed_points.push_back(point);
    }
  }

  const double qps = flags.GetDouble("qps", 50.0);
  const double duration = flags.GetDouble("duration", 5.0);
  const bool replay = flags.GetBool("replay");
  // qps/duration pace the open loop and (absent --requests) size the
  // stream; a replay with an explicit --requests uses neither.
  if ((qps <= 0 || duration <= 0) && !(replay && flags.Has("requests"))) {
    std::fprintf(stderr, "serve needs --qps > 0 and --duration > 0\n");
    return 1;
  }

  serve::WorkloadOptions wl;
  wl.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  wl.task_size = static_cast<uint32_t>(flags.GetInt("task_size", 3));
  wl.zipf_exponent = flags.GetDouble("zipf", 1.0);
  wl.num_requests = flags.Has("requests")
                        ? static_cast<uint32_t>(flags.GetInt("requests", 0))
                        : static_cast<uint32_t>(qps * duration);
  if (wl.num_requests == 0) {
    std::fprintf(stderr, "serve: empty request stream\n");
    return 1;
  }
  options.queue_capacity = replay ? wl.num_requests + 1 : 1024;
  std::vector<serve::TeamRequest> requests =
      serve::GenerateRequests(ds.skills, wl);
  if (deadline_ms > 0) {
    for (serve::TeamRequest& req : requests) {
      req.deadline_us = static_cast<uint64_t>(deadline_ms * 1000.0);
    }
  }

  // Tier-2 prewarm: bulk-compute the Zipf-hot holders' rows into the
  // shared cache before the server opens (the index oracle shares the
  // cache and the default params, so its keys match the workers').
  const double prewarm_frac = flags.GetDouble("prewarm_frac", 0.0);
  if (prewarm_frac > 0) {
    serve::PrewarmOptions pw;
    pw.fraction = prewarm_frac;
    pw.zipf_exponent = wl.zipf_exponent;
    pw.threads = threads;
    const serve::PrewarmReport report =
        serve::PrewarmZipfHead(index_oracle.get(), ds.skills, pw);
    std::printf("prewarm   : %llu/%llu holders in %.2f s\n",
                static_cast<unsigned long long>(report.rows_prewarmed),
                static_cast<unsigned long long>(report.holders_ranked),
                report.seconds);
  }

  const RowCache::StatsSnapshot cache_before = cache->SnapshotCounters();
  serve::TeamFormationServer server(ds.graph, ds.skills, &index, kind, cache,
                                    options);
  serve::WorkloadResult run;
  if (replay) {
    // Burst replay: no pacing, no drops — the digest below is a pure
    // function of (dataset, relation, workload seed, greedy params).
    run = serve::RunBurst(&server, std::move(requests));
  } else {
    Rng arrivals(wl.seed + 0x9e37);
    run = serve::RunOpenLoop(&server, std::move(requests), qps, &arrivals);
  }
  server.Shutdown();
  const serve::ServerMetrics metrics = server.Metrics();
  const RowCache::StatsSnapshot cache_window =
      metrics.cache - cache_before;

  std::printf("served    : %llu requests (%llu dropped) in %.2f s "
              "(%.1f req/s)\n",
              static_cast<unsigned long long>(run.completed),
              static_cast<unsigned long long>(run.dropped), run.seconds,
              run.seconds > 0 ? run.completed / run.seconds : 0.0);
  if (deadline_ms > 0 || run.rejected + run.shed + run.degraded > 0) {
    std::printf("overload  : %llu rejected, %llu shed, %llu degraded, "
                "%llu unavailable\n",
                static_cast<unsigned long long>(run.rejected),
                static_cast<unsigned long long>(run.shed),
                static_cast<unsigned long long>(run.degraded),
                static_cast<unsigned long long>(run.unavailable));
  }
  std::printf("latency   : p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
              metrics.total_us.ValueAtQuantile(0.50) / 1000.0,
              metrics.total_us.ValueAtQuantile(0.95) / 1000.0,
              metrics.total_us.ValueAtQuantile(0.99) / 1000.0);
  std::printf("views     : %llu on the dense view, %llu oracle fallback(s)\n",
              static_cast<unsigned long long>(metrics.shared_view_batches),
              static_cast<unsigned long long>(metrics.fallback_batches));
  std::printf("row cache : %.1f%% hit rate over %llu lookups; %s\n",
              cache_window.HitRate() * 100.0,
              static_cast<unsigned long long>(cache_window.lookups()),
              CacheOccupancy(*cache).c_str());
  if (cache->options().compress || cache->spill() != nullptr) {
    std::printf("tiers     : %.2f MB compressed resident, %llu spill reads, "
                "%llu writes, %llu decodes (%.1f ms)\n",
                cache_window.compressed_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(cache_window.spill_reads),
                static_cast<unsigned long long>(cache_window.spill_writes),
                static_cast<unsigned long long>(cache_window.decodes),
                cache_window.decode_ns / 1e6);
  }
  uint64_t solved = 0;
  for (const serve::TeamResponse& resp : run.responses) {
    solved += resp.status.ok() && resp.result.found;
  }
  std::printf("solved    : %llu/%llu\n",
              static_cast<unsigned long long>(solved),
              static_cast<unsigned long long>(run.completed));
  for (const std::string& point : armed_points) {
    std::printf("fault     : %-28s fired %llu/%llu evaluations\n",
                point.c_str(),
                static_cast<unsigned long long>(
                    FaultRegistry::Instance().FireCount(point)),
                static_cast<unsigned long long>(
                    FaultRegistry::Instance().HitCount(point)));
  }
  if (replay) {
    // FNV-1a over (id, members, cost) in id order: bit-identical teams
    // <=> equal digests. Only successful, non-degraded responses are
    // mixed, so the digest is invariant under injected faults (which may
    // only cost recomputation) and comparable across shed configurations.
    Fnv1a digest;
    for (const serve::TeamResponse& resp : run.responses) {
      if (!resp.status.ok() || resp.degraded) continue;
      digest.Mix(resp.id);
      digest.Mix(resp.result.found ? resp.result.cost : ~0ull);
      for (NodeId member : resp.result.members) digest.Mix(member);
    }
    std::printf("digest    : %016llx\n",
                static_cast<unsigned long long>(digest.digest()));
  }
  return 0;
}

int CmdExport(const Flags& flags) {
  if (!flags.Has("out")) return Usage();
  Dataset ds = LoadInput(flags);
  WriteEdgeList(ds.graph, flags.GetString("out")).CheckOK();
  std::printf("wrote %s\n", flags.GetString("out").c_str());
  if (flags.Has("skills_out")) {
    WriteSkills(ds.skills, flags.GetString("skills_out")).CheckOK();
    std::printf("wrote %s\n", flags.GetString("skills_out").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  if (flags.passthrough().empty()) return Usage();
  const std::string& command = flags.passthrough()[0];
  if (command == "stats") return CmdStats(flags);
  if (command == "compat") return CmdCompat(flags);
  if (command == "team" || command == "form") return CmdTeam(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "export") return CmdExport(flags);
  return Usage();
}
