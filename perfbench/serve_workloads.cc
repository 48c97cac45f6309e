// The serving workload serve_hot: TeamFormationServer fed by one
// submitting thread with back-to-back burst replays of a Zipf stream on a
// hot cache. Its traced run adds an SLO probe: open-loop Poisson arrivals
// with deadlines on a compressed, spilling cache smaller than the rows.

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include "perfbench/bench.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using namespace tfsn;
using serve::TeamRequest;
using serve::TeamResponse;

constexpr uint32_t kWorkers = 3;  // + the submitting thread = kThreadBudget
constexpr uint32_t kTaskSize = 3;

// serve_hot: a flat, unbounded cache prewarmed with every holder's row.
constexpr double kHotScale = 0.25;
constexpr uint32_t kHotStream = 4096;

// SLO probe: compressed rows under a budget well below the compressed
// rows, every row prewarmed (two thirds of them then live only in the
// spill store). At scale 0.5 decode-bound service sustains ~11 teams/s;
// at 0.15 (n = 4,328) 40 arrivals/s keep the server busy but below
// saturation, and the deadline sits well above the tail so that no
// request is shed in a healthy run.
constexpr double kSloScale = 0.15;
constexpr size_t kSloCacheBytes = 3ull << 20;  // ~1/3 of the compressed rows
constexpr double kSloRate = 40;  // arrivals per second
constexpr uint64_t kSloDeadlineUs = 1'000'000;

/// The greedy configuration `tfsn_cli serve` runs: LCMD, 16 seeds.
GreedyParams ServeGreedy() {
  GreedyParams p;
  p.skill_policy = SkillPolicy::kLeastCompatible;
  p.user_policy = UserPolicy::kMinDistance;
  p.max_seeds = 16;
  return p;
}

/// The reference for served teams: single-thread Form on the per-task
/// dense view. With every universe row in the reference's own cache it
/// is ~3x cheaper than the oracle seed loop, which keeps checking tens of
/// thousands of served teams inside the run's time budget.
GreedyParams ReferenceParams() {
  GreedyParams p = ServeGreedy();
  p.eval_path = GreedyEvalPath::kView;
  return p;
}

serve::ServerOptions ServerOptionsFor(size_t queue_capacity) {
  serve::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = queue_capacity;
  options.greedy = ServeGreedy();
  options.view_build_threads = 1;
  options.deadline.shed = serve::ShedMode::kQueue;
  return options;
}

std::vector<TeamRequest> ServeStream(const SkillAssignment& skills,
                                     uint64_t seed, uint32_t n,
                                     uint64_t deadline_us) {
  serve::WorkloadOptions wl;
  wl.task_size = kTaskSize;
  wl.zipf_exponent = 1.0;
  wl.seed = seed;
  wl.num_requests = n;
  std::vector<TeamRequest> requests = serve::GenerateRequests(skills, wl);
  for (TeamRequest& r : requests) r.deadline_us = deadline_us;
  return requests;
}

/// A fixture plus a running server and what set-up reported.
struct ServeSetup {
  std::unique_ptr<Fixture> fx;
  std::shared_ptr<RowSpillStore> spill;
  serve::PrewarmReport prewarm;
  std::vector<TeamRequest> stream;
  std::unique_ptr<serve::TeamFormationServer> server;

  ~ServeSetup() {
    if (server != nullptr) server->Shutdown();
  }
};

/// Removes a directory tree when it goes out of scope.
struct RemoveTreeOnExit {
  std::string path;
  ~RemoveTreeOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// One submitted request as the submitting thread saw it.
struct Sent {
  size_t index = 0;        // into the stream
  int64_t due_ns = 0;      // when the schedule wanted it sent
  int64_t submit_ns = 0;   // when TrySubmit/Submit was called
  std::future<TeamResponse> future;
};

/// Responses of a phase with the counts the accounting identity needs.
struct Phase {
  uint64_t attempted = 0;
  uint64_t dropped = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t unavailable = 0;
  uint64_t degraded = 0;
  double seconds = 0;
  std::vector<size_t> index;  // stream index per response
  std::vector<TeamResponse> responses;
  std::vector<double> latency_ms;  // completed only, from when due
  std::vector<double> lag_ms;      // submit - due, every attempt
  std::vector<int64_t> submit_ns;  // per response

  void Add(const Phase& o) {
    attempted += o.attempted;
    dropped += o.dropped;
    rejected += o.rejected;
    completed += o.completed;
    shed += o.shed;
    unavailable += o.unavailable;
    degraded += o.degraded;
    seconds += o.seconds;
    index.insert(index.end(), o.index.begin(), o.index.end());
    responses.insert(responses.end(), o.responses.begin(), o.responses.end());
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    submit_ns.insert(submit_ns.end(), o.submit_ns.begin(), o.submit_ns.end());
  }
};

/// Waits for every sent request and tallies the responses.
void Collect(std::vector<Sent>* sent, Phase* phase) {
  for (Sent& s : *sent) {
    TeamResponse resp = s.future.get();
    if (resp.status.ok()) {
      ++phase->completed;
      phase->degraded += resp.degraded ? 1 : 0;
      phase->latency_ms.push_back((s.submit_ns - s.due_ns) / 1e6 +
                                  resp.total_us / 1e3);
    } else if (resp.status.IsDeadlineExceeded()) {
      ++phase->shed;
    } else {
      ++phase->unavailable;
    }
    phase->index.push_back(s.index);
    phase->submit_ns.push_back(s.submit_ns);
    phase->responses.push_back(std::move(resp));
  }
}

/// One burst replay through serve::RunBurst (the untraced path).
Phase Burst(ServeSetup* s) {
  std::vector<TeamRequest> copy = s->stream;
  Phase phase;
  const serve::WorkloadResult r =
      serve::RunBurst(s->server.get(), std::move(copy));
  phase.attempted = s->stream.size();
  phase.rejected = r.rejected;
  phase.completed = r.completed;
  phase.shed = r.shed;
  phase.unavailable = r.unavailable;
  phase.degraded = r.degraded;
  phase.seconds = r.seconds;
  for (const TeamResponse& resp : r.responses) {
    phase.index.push_back(resp.id);  // the stream's ids are its indices
    if (resp.status.ok()) phase.latency_ms.push_back(resp.total_us / 1e3);
    phase.submit_ns.push_back(0);
  }
  phase.responses = r.responses;
  return phase;
}

/// The same burst submitted request by request, recording the submit
/// times the traced run rebuilds its spans from.
Phase TimedBurst(ServeSetup* s) {
  Phase phase;
  std::vector<Sent> sent;
  sent.reserve(s->stream.size());
  Timer timer;
  for (size_t i = 0; i < s->stream.size(); ++i) {
    Sent x;
    x.index = i;
    x.submit_ns = x.due_ns = NowNs();
    const Status st = s->server->Submit(s->stream[i], &x.future);
    ++phase.attempted;
    if (!st.ok()) {
      ++phase.rejected;
      continue;
    }
    sent.push_back(std::move(x));
  }
  Collect(&sent, &phase);
  phase.seconds = timer.Seconds();
  return phase;
}

/// Poisson arrivals at kSloRate from `arrivals`, sent with TrySubmit
/// until `seconds` of schedule have passed, starting at stream position
/// `*next`. Latency counts from when each request was due, so a late
/// sender shows up in it.
Phase OpenLoop(ServeSetup* s, double seconds, Rng* arrivals, size_t* next) {
  Phase phase;
  std::vector<Sent> sent;
  const Clock::time_point start = Clock::now();
  double offset_s = 0;
  for (;;) {
    offset_s += -std::log1p(-arrivals->NextDouble()) / kSloRate;
    if (offset_s >= seconds) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
    std::this_thread::sleep_until(due);
    Sent x;
    x.index = (*next)++ % s->stream.size();
    x.due_ns = ToNs(due);
    x.submit_ns = NowNs();
    phase.lag_ms.push_back((x.submit_ns - x.due_ns) / 1e6);
    ++phase.attempted;
    const Status st = s->server->TrySubmit(s->stream[x.index], &x.future);
    if (st.ok()) {
      sent.push_back(std::move(x));
    } else if (st.IsResourceExhausted()) {
      ++phase.dropped;
    } else {
      ++phase.rejected;
    }
  }
  Collect(&sent, &phase);
  phase.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return phase;
}

/// Rebuilds request spans from the server-reported timings: the request
/// (admission to response) with its queue wait and its own formation
/// time as children, one display track per concurrently open request.
void AddResponseSpans(const Phase& phase, int32_t root, Tracer* tracer) {
  TrackAllocator tracks;
  for (size_t i = 0; i < phase.responses.size(); ++i) {
    const TeamResponse& r = phase.responses[i];
    const int64_t a = phase.submit_ns[i];
    const int64_t q = a + static_cast<int64_t>(r.queue_us) * 1000;
    const int64_t e = a + static_cast<int64_t>(r.total_us) * 1000;
    const uint32_t track = tracks.Take(a, e);
    const int32_t req =
        tracer->Add("serve.request", a, e, r.id, root, track);
    tracer->Add("serve.queue", a, q, r.id, req, track);
    if (r.status.ok()) {
      tracer->Add("serve.service", q,
                  q + static_cast<int64_t>(r.service_us) * 1000, r.id, req,
                  track);
    }
  }
}

/// Checks every completed, non-degraded response against the reference.
bool CheckPhase(const Fixture& fx, const Phase& phase,
                const std::vector<TeamRequest>& stream, const char* what) {
  std::vector<const TeamRequest*> want_for;
  std::vector<size_t> got;
  std::vector<int64_t> ref_of(stream.size(), -1);
  TeamCheck check;
  for (size_t i = 0; i < phase.responses.size(); ++i) {
    const TeamResponse& r = phase.responses[i];
    if (!r.status.ok()) continue;
    if (r.degraded) {
      ++check.skipped_degraded;
      continue;
    }
    const size_t idx = phase.index[i];
    if (ref_of[idx] < 0) {
      ref_of[idx] = static_cast<int64_t>(want_for.size());
      want_for.push_back(&stream[idx]);
    }
    got.push_back(i);
  }
  Reference reference(fx, ReferenceParams());
  const std::vector<TeamResult> want = reference.FormAll(want_for);
  for (size_t i : got) {
    const size_t idx = phase.index[i];
    check.Compare(phase.responses[i].id, phase.responses[i].result,
                  want[static_cast<size_t>(ref_of[idx])]);
  }
  return check.Finish(what);
}

bool CheckPhaseAccounting(const Phase& p) {
  return CheckAccounting(p.attempted, p.completed, p.dropped, p.rejected,
                         p.shed, p.unavailable, 0);
}

uint64_t Failed(const Phase& p) {
  return p.dropped + p.rejected + p.shed + p.unavailable;
}

void SetServeEndToEnd(double setup_s, double teams_per_s, double p50_ms,
                      double p99_ms, double rss_mb, Report* out) {
  out->Set("setup_s", setup_s, "s");
  out->Set("teams_per_s", teams_per_s, "1/s");
  out->Set("latency_p50_ms", p50_ms, "ms");
  out->Set("latency_p99_ms", p99_ms, "ms");
  out->Set("peak_rss_mb", rss_mb, "MB");
}

/// Per-layer serving metrics of a traced phase.
void SetServeLayers(const ServeSetup& s, const Phase& p,
                    const serve::ServerMetrics& m0,
                    const serve::ServerMetrics& m1, Report* out) {
  std::vector<double> queue_ms, service_ms;
  double tried = 0, succeeded = 0;
  for (const TeamResponse& r : p.responses) {
    if (!r.status.ok()) continue;
    queue_ms.push_back(r.queue_us / 1e3);
    service_ms.push_back(r.service_us / 1e3);
    tried += r.result.seeds_tried;
    succeeded += r.result.seeds_succeeded;
  }
  const double batches = static_cast<double>(m1.batches - m0.batches);
  const double completed = static_cast<double>(p.completed);
  const RowCache::StatsSnapshot cache = m1.cache - m0.cache;
  out->Set("kernel.rows_computed", static_cast<double>(cache.insertions),
           "count");
  out->Set("kernel.rows_per_team",
           completed > 0 ? cache.insertions / completed : 0, "count");
  SetCacheMetrics(cache,
                  MiB(static_cast<double>(s.fx->cache->stats().bytes_in_use)),
                  out);
  out->Set("index.build_s", s.fx->index_build_s, "s");
  out->Set("prewarm.rows", static_cast<double>(s.prewarm.rows_prewarmed),
           "count");
  out->Set("prewarm.s", s.prewarm.seconds, "s");
  out->Set("view.shared_frac",
           batches > 0 ? (m1.shared_view_batches - m0.shared_view_batches) /
                             batches
                       : 0,
           "frac");
  out->Set("greedy.seeds_tried", completed > 0 ? tried / completed : 0,
           "count");
  out->Set("greedy.seed_success_frac", tried > 0 ? succeeded / tried : 0,
           "frac");
  out->Set("serve.queue_ms_p50", Quantile(queue_ms, 0.5), "ms");
  out->Set("serve.queue_ms_p99", Quantile(queue_ms, 0.99), "ms");
  out->Set("serve.service_ms_p50", Quantile(service_ms, 0.5), "ms");
  out->Set("serve.service_ms_p99", Quantile(service_ms, 0.99), "ms");
  out->Set("serve.batches", batches, "count");
  out->Set("serve.batch_mean",
           batches > 0 ? (m1.completed - m0.completed) / batches : 0, "count");
  out->Set("serve.shed", static_cast<double>(p.shed), "count");
  out->Set("serve.rejected", static_cast<double>(p.rejected), "count");
  out->Set("serve.dropped", static_cast<double>(p.dropped), "count");
  out->Set("serve.degraded_frac",
           completed > 0 ? p.degraded / completed : 0, "frac");
  out->Set("failed_frac",
           p.attempted > 0 ? static_cast<double>(Failed(p)) / p.attempted : 0,
           "frac");
}

/// Layer-alone probes on the warm cache after the timed phases: for up
/// to `limit` stream requests, the per-request view build (rows from the
/// server's cache) and the seed loop on it, each in a span; the teams
/// are checked against the reference too.
bool ViewProbes(const ServeSetup& s, size_t limit, Tracer* tracer,
                Report* out) {
  auto oracle =
      MakeOracle(s.fx->ds.graph, kRelation, OracleParams{}, s.fx->cache);
  GreedyTeamFormer former(oracle.get(), s.fx->ds.skills, s.fx->index.get(),
                          ServeGreedy());
  std::vector<const TeamRequest*> reqs;
  std::vector<TeamResult> got;
  std::vector<double> build_ms, loop_ms, universe, view_mb;
  for (size_t i = 0; i < std::min(limit, s.stream.size()); ++i) {
    const TeamRequest& req = s.stream[i];
    ScopedSpan root(tracer, "bench.probe", req.id);
    std::vector<NodeId> members =
        HolderUniverse(s.fx->ds.skills, req.task.skills());
    universe.push_back(static_cast<double>(members.size()));
    std::unique_ptr<TaskCompatView> view;
    {
      ScopedSpan span(tracer, "view.build", req.id, root.id());
      Timer t;
      view = TaskCompatView::BuildFromUniverse(
          oracle.get(), s.fx->ds.skills, req.task, std::move(members), 1);
      build_ms.push_back(t.Millis());
    }
    ScopedSpan span(tracer, "greedy.seed_loop", req.id, root.id());
    Rng rng(req.rng_seed);
    Timer t;
    if (view != nullptr) {
      view_mb.push_back(MiB(static_cast<double>(view->bytes())));
      got.push_back(former.FormWithView(*view, req.task, &rng));
    } else {
      got.push_back(former.Form(req.task, &rng));
    }
    loop_ms.push_back(t.Millis());
    reqs.push_back(&req);
  }
  out->Set("view.build_ms_p50", Median(build_ms), "ms");
  out->Set("view.universe_mean", Mean(universe), "count");
  out->Set("view.bytes_mb", Mean(view_mb), "MB");
  out->Set("greedy.seed_loop_ms_p50", Median(loop_ms), "ms");
  TeamCheck check;
  Reference reference(*s.fx, ReferenceParams());
  const std::vector<TeamResult> want = reference.FormAll(reqs);
  for (size_t i = 0; i < want.size(); ++i) {
    check.Compare(reqs[i]->id, got[i], want[i]);
  }
  return check.Finish("view probes");
}

/// The SLO probe of serve_hot's traced run: a second server on a
/// compressed cache about a third the size of the rows, spilling to disk,
/// fed open-loop Poisson arrivals at kSloRate under kSloDeadlineUs
/// deadlines with ShedMode::kQueue for `seconds`. It exercises the
/// compressed and spill tiers, admission and the deadline gates; its
/// figures are the slo.* per-layer metrics. Teams are checked against the
/// reference and the accounting identity must hold.
bool SloProbe(const Options& opt, double seconds, RunResult* run) {
  // Declared before the set-up so that the spill store closes first.
  const RemoveTreeOnExit spill_dir{opt.work_dir + "/spill-" +
                                   std::to_string(getpid())};
  ServeSetup s;
  RowCacheOptions cache;
  cache.max_bytes = kSloCacheBytes;
  cache.compress = true;
  s.spill = std::make_shared<RowSpillStore>(spill_dir.path);
  if (!s.spill->ok()) {
    std::fprintf(stderr, "cannot open a spill store under %s\n",
                 spill_dir.path.c_str());
    return false;
  }
  cache.spill = s.spill;
  s.fx = MakeFixture(opt.smoke ? kSmokeScale : kSloScale, cache);
  serve::PrewarmOptions pw;
  pw.fraction = 1.0;
  pw.zipf_exponent = 1.0;
  pw.threads = kThreadBudget;
  s.prewarm = serve::PrewarmZipfHead(s.fx->oracle.get(), s.fx->ds.skills, pw);
  // Enough distinct requests that a probe never reuses one.
  s.stream = ServeStream(s.fx->ds.skills, opt.seed,
                         static_cast<uint32_t>(kSloRate * seconds * 2) + 64,
                         kSloDeadlineUs);
  s.server = std::make_unique<serve::TeamFormationServer>(
      s.fx->ds.graph, s.fx->ds.skills, s.fx->index.get(), kRelation,
      s.fx->cache, ServerOptionsFor(1024));

  Rng arrivals(opt.seed ^ 0x9e3779b97f4a7c15ull);
  size_t next = 0;
  const serve::ServerMetrics m0 = s.server->Metrics();
  const Phase p = OpenLoop(&s, seconds, &arrivals, &next);
  const RowCache::StatsSnapshot c = s.server->Metrics().cache - m0.cache;
  std::printf("slo probe  n=%u, %" PRIu64 " arrivals at %.0f/s, %zu latency "
              "samples, %" PRIu64 " degraded\n",
              s.fx->ds.graph.num_nodes(), p.attempted, kSloRate,
              p.latency_ms.size(), p.degraded);
  run->attempted += p.attempted;
  run->failed += Failed(p);
  Report& m = run->metrics;
  m.Set("slo.teams_per_s", p.completed / p.seconds, "1/s");
  m.Set("slo.latency_p50_ms", Median(p.latency_ms), "ms");
  m.Set("slo.latency_p99_ms", Quantile(p.latency_ms, 0.99), "ms");
  m.Set("slo.generator_lag_ms", Quantile(p.lag_ms, 0.99), "ms");
  m.Set("slo.hit_rate", c.HitRate(), "frac");
  m.Set("slo.decodes", static_cast<double>(c.decodes), "count");
  m.Set("slo.decode_ms", c.decode_ns / 1e6, "ms");
  m.Set("slo.spill_reads", static_cast<double>(c.spill_reads), "count");
  m.Set("slo.spill_writes", static_cast<double>(c.spill_writes), "count");
  m.Set("slo.failed_frac",
        p.attempted > 0 ? static_cast<double>(Failed(p)) / p.attempted : 0,
        "frac");
  m.Set("slo.degraded_frac",
        p.completed > 0 ? static_cast<double>(p.degraded) / p.completed : 0,
        "frac");
  return CheckPhaseAccounting(p) &&
         CheckPhase(*s.fx, p, s.stream, "slo probe");
}

}  // namespace

RunResult RunServeHot(const Options& opt) {
  const double scale = opt.smoke ? kSmokeScale : kHotScale;
  const uint32_t stream_len = opt.smoke ? 256 : kHotStream;
  auto make = [&](int) {
    auto s = std::make_unique<ServeSetup>();
    RowCacheOptions cache;
    cache.max_bytes = 0;  // holds the whole working set
    s->fx = MakeFixture(scale, cache);
    serve::PrewarmOptions pw;
    pw.fraction = 1.0;
    pw.zipf_exponent = 1.0;
    pw.threads = kThreadBudget;
    s->prewarm =
        serve::PrewarmZipfHead(s->fx->oracle.get(), s->fx->ds.skills, pw);
    s->stream = ServeStream(s->fx->ds.skills, opt.seed, stream_len, 0);
    s->server = std::make_unique<serve::TeamFormationServer>(
        s->fx->ds.graph, s->fx->ds.skills, s->fx->index.get(), kRelation,
        s->fx->cache, ServerOptionsFor(stream_len + 1));
    return s;
  };
  std::unique_ptr<ServeSetup> s;
  const double setup_s = RepeatSetup(make, &s);
  PrintProvenance(opt, *s->fx,
                  "\"workers\": 3, \"stream\": " + std::to_string(stream_len) +
                      ", \"task_size\": 3, \"zipf\": 1.0, \"prewarm_rows\": " +
                      std::to_string(s->prewarm.rows_prewarmed));

  RunResult run;
  auto bursts = [&](double seconds, Phase (*burst)(ServeSetup*)) {
    Phase all;
    while (all.seconds < seconds) all.Add(burst(s.get()));
    return all;
  };
  if (!opt.trace) {
    // Host load drifts over seconds, so the run reports the median burst:
    // throughput and latency percentiles are taken per burst (4,096
    // samples, 40 beyond p99) and their medians reported.
    Phase p;
    std::vector<double> rate, p50, p99;
    while (p.seconds < opt.seconds) {
      const Phase b = Burst(s.get());
      rate.push_back(b.completed / b.seconds);
      p50.push_back(Median(b.latency_ms));
      p99.push_back(Quantile(b.latency_ms, 0.99));
      p.Add(b);
    }
    const double rss = PeakRssMb();
    std::printf("latency    %zu bursts of %zu requests; medians over bursts\n",
                rate.size(), s->stream.size());
    run.attempted = p.attempted;
    run.failed = Failed(p);
    run.correct = CheckPhaseAccounting(p) &&
                  CheckPhase(*s->fx, p, s->stream, "serve_hot");
    SetServeEndToEnd(setup_s, Median(rate), Median(p50), Median(p99), rss,
                     &run.metrics);
    return run;
  }

  // Traced run: untraced bursts for half the time, then traced bursts on
  // the same hot server; the throughput gap is the tracing overhead.
  const Phase untraced = bursts(opt.seconds / 2, Burst);
  Tracer tracer;
  const serve::ServerMetrics m0 = s->server->Metrics();
  const int64_t window_start = NowNs();
  Phase traced;
  while (traced.seconds < opt.seconds / 2) {
    const int32_t root = tracer.Begin("bench.burst", 0);
    const Phase p = TimedBurst(s.get());
    tracer.End(root);
    AddResponseSpans(p, root, &tracer);
    traced.Add(p);
  }
  const int64_t window_end = NowNs();
  const serve::ServerMetrics m1 = s->server->Metrics();

  Report& m = run.metrics;
  Phase both = untraced;
  both.Add(traced);
  run.attempted = both.attempted;
  run.failed = Failed(both);
  run.correct = CheckPhaseAccounting(both) &&
                CheckPhase(*s->fx, both, s->stream, "serve_hot");
  SetServeLayers(*s, traced, m0, m1, &m);
  run.correct =
      ViewProbes(*s, opt.smoke ? 32 : 256, &tracer, &m) && run.correct;
  m.Set("trace.overhead_frac",
        (untraced.completed / untraced.seconds) /
                (traced.completed / traced.seconds) -
            1,
        "frac");
  run.correct =
      ReportTrace(opt, tracer, window_start, window_end, &m) && run.correct;
  run.correct = SloProbe(opt, opt.seconds / 2, &run) && run.correct;
  return run;
}

}  // namespace perfbench
