// The closed-loop formation workload form_cold: one caller forms one task
// at a time through GreedyTeamFormer::Form. Its traced run also sends the
// same tasks through the sharded DistributedFormer.

#include <cinttypes>
#include <cstdio>
#include <functional>

#include "perfbench/bench.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using namespace tfsn;
using serve::TeamRequest;

constexpr double kFormScale = 0.5;  // n = 14,427
constexpr uint32_t kTaskSize = 4;
constexpr uint32_t kPoolBits = 10;  // 1024 tasks per stream
constexpr uint32_t kShards = 3;  // + the coordinator = kThreadBudget

/// The greedy configuration `tfsn_cli team --threads=N` runs (CmdTeam in
/// examples/tfsn_cli.cpp): LCMD, 25 seeds, the thread budget spent on
/// the eager row prefetch, a serial seed loop. Every thread knob of
/// form_cold and its sharded probe is set here and nowhere else.
GreedyParams TeamParamsForThreads(uint32_t threads) {
  GreedyParams p;
  p.skill_policy = SkillPolicy::kLeastCompatible;
  p.user_policy = UserPolicy::kMinDistance;
  p.max_seeds = 25;
  p.prefetch_threads = threads == 1 ? 0 : ResolveThreads(threads);
  p.seed_threads = 1;
  p.eval_path = GreedyEvalPath::kAuto;
  return p;
}

/// form_cold's task stream: 2^kPoolBits Zipf(s=1) tasks of
/// kTaskSize skills drawn from `seed`, ordered so that every prefix
/// spreads evenly over the pool's task sizes. A task's cost is close to
/// proportional to its holder count, which varies over 50x between
/// tasks, and a run reaches only a short prefix of the stream; in draw
/// order the prefix's mix of small and large tasks, and with it the
/// run's throughput, would swing from seed to seed. Position j takes the
/// task of size rank bitreverse(j), so any prefix samples the size
/// quantiles evenly while the tasks themselves stay seed-drawn.
std::vector<TeamRequest> FormStream(const SkillAssignment& skills,
                                    uint64_t seed) {
  serve::WorkloadOptions wl;
  wl.task_size = kTaskSize;
  wl.zipf_exponent = 1.0;
  wl.seed = seed;
  wl.num_requests = 1u << kPoolBits;
  std::vector<TeamRequest> pool = serve::GenerateRequests(skills, wl);
  std::vector<std::pair<uint64_t, uint32_t>> by_size;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    uint64_t holders = 0;
    for (SkillId s : pool[i].task.skills()) holders += skills.Frequency(s);
    by_size.emplace_back(holders, i);
  }
  std::sort(by_size.begin(), by_size.end());
  std::vector<TeamRequest> stream;
  stream.reserve(pool.size());
  for (uint32_t j = 0; j < pool.size(); ++j) {
    uint32_t rank = 0;
    for (uint32_t b = 0; b < kPoolBits; ++b) {
      rank |= ((j >> b) & 1u) << (kPoolBits - 1 - b);
    }
    stream.push_back(pool[by_size[rank].second]);
  }
  return stream;
}

struct FormPass {
  std::vector<TeamRequest> requests;  // in the order formed
  std::vector<TeamResult> results;
  std::vector<uint8_t> ok;  // 0 = typed formation error
  std::vector<double> latency_ms;
  uint64_t errored = 0;
  double seconds = 0;
};

/// Forms one task at a time from `stream` (wrapping around if the run
/// outlasts it) until `seconds` have passed or `limit` tasks are formed.
/// `form` returns false on a typed formation error.
FormPass RunFormPass(const std::vector<TeamRequest>& stream, double seconds,
                     size_t limit,
                     const std::function<bool(const TeamRequest&, Rng*,
                                              TeamResult*)>& form) {
  FormPass pass;
  Timer wall;
  for (size_t i = 0; i < limit && wall.Seconds() < seconds; ++i) {
    const TeamRequest& req = stream[i % stream.size()];
    Rng rng(req.rng_seed);
    TeamResult result;
    Timer t;
    const bool ok = form(req, &rng, &result);
    pass.latency_ms.push_back(t.Millis());
    pass.requests.push_back(req);
    pass.results.push_back(std::move(result));
    pass.ok.push_back(ok ? 1 : 0);
    pass.errored += ok ? 0 : 1;
  }
  pass.seconds = wall.Seconds();
  return pass;
}

/// Checks every error-free team of `pass` against the reference.
bool CheckPass(const Fixture& fx, const GreedyParams& params,
               const FormPass& pass, const char* what) {
  TeamCheck check;
  std::vector<const TeamRequest*> ok_requests;
  std::vector<const TeamResult*> got;
  for (size_t i = 0; i < pass.requests.size(); ++i) {
    if (!pass.ok[i]) continue;  // counted as failed, nothing to compare
    ok_requests.push_back(&pass.requests[i]);
    got.push_back(&pass.results[i]);
  }
  Reference reference(fx, params);
  const std::vector<TeamResult> want = reference.FormAll(ok_requests);
  for (size_t i = 0; i < want.size(); ++i) {
    check.Compare(ok_requests[i]->id, *got[i], want[i]);
  }
  return check.Finish(what);
}

/// End-to-end metrics of an untraced form pass.
void SetFormEndToEnd(const FormPass& pass, double setup_s, double rss_mb,
                     Report* out) {
  const size_t n = pass.latency_ms.size();
  std::printf("latency    %zu samples (one per Form call), %zu beyond p99%s\n",
              n, n / 100,
              n < 100 ? " (below 100 samples p99 is the slowest call)" : "");
  out->Set("setup_s", setup_s, "s");
  out->Set("teams_per_s",
           static_cast<double>(n - pass.errored) / pass.seconds, "1/s");
  out->Set("latency_p50_ms", Median(pass.latency_ms), "ms");
  out->Set("latency_p99_ms", Quantile(pass.latency_ms, 0.99), "ms");
  out->Set("peak_rss_mb", rss_mb, "MB");
}

/// Seed-loop tallies every form workload reports from TeamResult.
void SetSeedTallies(const FormPass& pass, Report* out) {
  double tried = 0;
  double succeeded = 0;
  for (const TeamResult& r : pass.results) {
    tried += r.seeds_tried;
    succeeded += r.seeds_succeeded;
  }
  const double teams = static_cast<double>(pass.results.size());
  out->Set("greedy.seeds_tried", teams > 0 ? tried / teams : 0, "count");
  out->Set("greedy.seed_success_frac", tried > 0 ? succeeded / tried : 0,
           "frac");
}

double OverheadFrac(const FormPass& untraced, const FormPass& traced) {
  if (untraced.results.empty() || traced.results.empty()) return 0;
  const double u = untraced.seconds / untraced.results.size();
  const double t = traced.seconds / traced.results.size();
  return t / u - 1;
}

RowCacheOptions SutCacheOptions() {
  RowCacheOptions options;
  options.max_bytes = 256ull << 20;  // the CLI's --cache-mb default
  return options;
}

/// Layer-alone probe of the sharded engine (src/dist/): the tasks of
/// `tasks` again, through DistributedFormer with kShards hash shards,
/// each call in a dist.form span. Teams are checked against the
/// reference and the transport ledger must balance; a typed error counts
/// in *failed.
bool DistProbe(const Fixture& fx, const GreedyParams& params,
               const FormPass& tasks, Tracer* tracer, Report* out,
               uint64_t* failed) {
  DistOptions options;
  options.num_shards = kShards;
  options.strategy = ShardStrategy::kHash;
  options.oracle_factory = OracleFactoryFor(kRelation);
  options.prewarm_threads = 1;
  DistributedFormer former(fx.ds.graph, fx.ds.skills, fx.index.get(), params,
                           options);
  FormCommStats total;
  auto dist_form = [&](const TeamRequest& req, Rng* rng, TeamResult* result) {
    ScopedSpan root(tracer, "bench.dist_probe", req.id);
    ScopedSpan span(tracer, "dist.form", req.id, root.id());
    FormCommStats comm;
    Result<TeamResult> r = former.Form(req.task, rng, &comm);
    total.steps += comm.steps;
    total.rounds += comm.rounds;
    total.comm.messages_sent += comm.comm.messages_sent;
    total.comm.control_bytes += comm.comm.control_bytes;
    total.comm.data_bytes += comm.comm.data_bytes;
    if (!r.ok()) {
      std::fprintf(stderr, "dist probe, request %" PRIu64 ": %s\n", req.id,
                   r.status().ToString().c_str());
      return false;
    }
    *result = *r;
    return true;
  };
  const FormPass pass =
      RunFormPass(tasks.requests, 1e300, tasks.requests.size(), dist_form);
  const CommStats ledger = former.comm_stats();
  const bool balanced = ledger.messages_sent == ledger.messages_delivered +
                                                   former.pending_messages();
  std::printf("transport  sent %" PRIu64 " = delivered %" PRIu64
              " + pending %" PRIu64 " -> %s\n",
              ledger.messages_sent, ledger.messages_delivered,
              former.pending_messages(), balanced ? "ok" : "BROKEN");
  *failed += pass.errored;
  out->Set("dist.steps", static_cast<double>(total.steps), "count");
  out->Set("dist.rounds", static_cast<double>(total.rounds), "count");
  out->Set("dist.messages", static_cast<double>(total.comm.messages_sent),
           "count");
  out->Set("dist.control_bytes_per_step",
           total.steps > 0
               ? static_cast<double>(total.comm.control_bytes) / total.steps
               : 0,
           "B");
  out->Set("dist.data_mb", MiB(static_cast<double>(total.comm.data_bytes)),
           "MB");
  out->Set("dist.form_ms_p50", Median(pass.latency_ms), "ms");
  return balanced && CheckPass(fx, params, pass, "dist probe");
}

}  // namespace

RunResult RunFormCold(const Options& opt) {
  const double scale = opt.smoke ? kSmokeScale : kFormScale;
  const GreedyParams params = TeamParamsForThreads(kThreadBudget);
  struct Setup {
    std::unique_ptr<Fixture> fx;
    std::unique_ptr<GreedyTeamFormer> former;
    std::vector<TeamRequest> stream;
  };
  auto make = [&](int) {
    auto s = std::make_unique<Setup>();
    s->fx = MakeFixture(scale, SutCacheOptions());
    s->former = std::make_unique<GreedyTeamFormer>(
        s->fx->oracle.get(), s->fx->ds.skills, s->fx->index.get(), params);
    s->stream = FormStream(s->fx->ds.skills, opt.seed);
    return s;
  };

  RunResult run;
  std::unique_ptr<Setup> s;
  const double setup_s = RepeatSetup(make, &s);
  PrintProvenance(opt, *s->fx,
                  "\"cache_mb\": 256, \"prefetch_threads\": " +
                      std::to_string(params.prefetch_threads) +
                      ", \"task_size\": 4, \"zipf\": 1.0");
  auto plain_form = [&](const TeamRequest& req, Rng* rng, TeamResult* out) {
    *out = s->former->Form(req.task, rng);
    return true;
  };

  if (!opt.trace) {
    const FormPass pass =
        RunFormPass(s->stream, opt.seconds, SIZE_MAX, plain_form);
    const double rss = PeakRssMb();
    run.attempted = pass.results.size();
    run.failed = pass.errored;
    run.correct = CheckAccounting(run.attempted, run.attempted - pass.errored,
                                  0, 0, 0, 0, pass.errored) &&
                  CheckPass(*s->fx, params, pass, "form_cold");
    SetFormEndToEnd(pass, setup_s, rss, &run.metrics);
    return run;
  }

  // Traced run: an untraced pass over half the time, then the same tasks
  // again on a fresh fixture with the layer-alone probes in spans. The
  // probes replay what Form does for a task: fetch the rows of its holder
  // universe (GetRows, batched as the view build batches them), build the
  // dense view over them, and run the seed loop on it (FormWithView,
  // bit-identical to Form).
  const FormPass untraced =
      RunFormPass(s->stream, opt.seconds / 2, SIZE_MAX, plain_form);
  s.reset();
  s = make(0);
  Tracer tracer;
  CompatibilityOracle* oracle = s->fx->oracle.get();
  const RowCache::StatsSnapshot cache0 = s->fx->cache->SnapshotCounters();
  const uint64_t rows0 = oracle->rows_computed();
  uint64_t kernel_rows = 0;
  std::vector<double> build_ms, loop_ms, universe, view_mb;
  const int64_t window_start = NowNs();
  auto probed_form = [&](const TeamRequest& req, Rng* rng, TeamResult* out) {
    ScopedSpan request(&tracer, "bench.request", req.id);
    std::vector<NodeId> members = HolderUniverse(s->fx->ds.skills,
                                                 req.task.skills());
    universe.push_back(static_cast<double>(members.size()));
    {
      ScopedSpan span(&tracer, "kernel.get_rows", req.id, request.id());
      const uint64_t before = oracle->rows_computed();
      constexpr size_t kBatch = 128;  // StreamRows' default batch
      for (size_t i = 0; i < members.size(); i += kBatch) {
        const size_t len = std::min(kBatch, members.size() - i);
        oracle->GetRows(std::span<const NodeId>(members).subspan(i, len),
                        params.prefetch_threads);
      }
      kernel_rows += oracle->rows_computed() - before;
    }
    std::unique_ptr<TaskCompatView> view;
    {
      ScopedSpan span(&tracer, "view.build", req.id, request.id());
      Timer t;
      view = TaskCompatView::BuildFromUniverse(
          oracle, s->fx->ds.skills, req.task, std::move(members),
          params.prefetch_threads, params.view_max_bytes);
      build_ms.push_back(t.Millis());
    }
    ScopedSpan span(&tracer, "greedy.seed_loop", req.id, request.id());
    Timer t;
    if (view != nullptr) {
      view_mb.push_back(MiB(static_cast<double>(view->bytes())));
      *out = s->former->FormWithView(*view, req.task, rng);
    } else {
      *out = s->former->Form(req.task, rng);
    }
    loop_ms.push_back(t.Millis());
    return true;
  };
  const FormPass traced = RunFormPass(s->stream, 1e300,
                                      untraced.results.size(), probed_form);
  const int64_t window_end = NowNs();

  Report& m = run.metrics;
  const bool dist_ok =
      DistProbe(*s->fx, params, traced, &tracer, &m, &run.failed);
  run.attempted = untraced.results.size() + 2 * traced.results.size();
  run.correct =
      CheckAccounting(run.attempted, run.attempted - run.failed, 0, 0, 0, 0,
                      run.failed) &&
      CheckPass(*s->fx, params, untraced, "form_cold untraced") &&
      CheckPass(*s->fx, params, traced, "form_cold traced") && dist_ok;
  const uint64_t rows = oracle->rows_computed() - rows0;
  double get_rows_busy = 0;
  for (const Span& sp : tracer.spans()) {
    if (std::string(sp.name) == "kernel.get_rows") {
      get_rows_busy += (sp.end_ns - sp.start_ns) / 1e9;
    }
  }
  m.Set("kernel.rows_computed", static_cast<double>(rows), "count");
  m.Set("kernel.rows_per_team",
        static_cast<double>(rows) / traced.results.size(), "count");
  m.Set("kernel.rows_per_s",
        get_rows_busy > 0 ? kernel_rows / get_rows_busy : 0, "1/s");
  m.Set("kernel.busy_s", get_rows_busy, "s");
  SetCacheMetrics(s->fx->cache->SnapshotCounters() - cache0,
                  MiB(static_cast<double>(s->fx->cache->stats().bytes_in_use)),
                  &m);
  m.Set("index.build_s", s->fx->index_build_s, "s");
  m.Set("view.build_ms_p50", Median(build_ms), "ms");
  m.Set("view.universe_mean", Mean(universe), "count");
  m.Set("view.bytes_mb", Mean(view_mb), "MB");
  m.Set("greedy.seed_loop_ms_p50", Median(loop_ms), "ms");
  SetSeedTallies(traced, &m);
  m.Set("failed_frac", static_cast<double>(run.failed) / run.attempted,
        "frac");
  m.Set("trace.overhead_frac", OverheadFrac(untraced, traced), "frac");
  std::printf("probes     rows computed: %" PRIu64
              " in kernel.get_rows, %" PRIu64
              " in view.build and greedy.seed_loop (refetches of rows "
              "evicted in between)\n",
              kernel_rows, rows - kernel_rows);
  run.correct =
      ReportTrace(opt, tracer, window_start, window_end, &m) && run.correct;
  return run;
}

}  // namespace perfbench
