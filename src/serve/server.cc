#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/team/task_view.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace tfsn::serve {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(to - from)
             .count()));
}

// Integer EWMA with α = 1/8. The load/store pair is deliberately not a
// CAS loop: a lost update between concurrent workers only perturbs an
// estimate, and the estimate feeds heuristics, not correctness.
void UpdateEwma(std::atomic<uint64_t>* ewma, uint64_t sample) {
  const uint64_t cur = ewma->load(std::memory_order_relaxed);
  const uint64_t next = cur == 0 ? sample : cur - cur / 8 + sample / 8;
  ewma->store(next, std::memory_order_relaxed);
}

}  // namespace

TeamFormationServer::TeamFormationServer(const SignedGraph& graph,
                                         const SkillAssignment& skills,
                                         const SkillCompatibilityIndex* index,
                                         CompatKind kind,
                                         std::shared_ptr<RowCache> cache,
                                         ServerOptions options)
    : skills_(skills),
      options_(options),
      cache_(std::move(cache)),
      queue_(options.queue_capacity),
      scheduler_(skills, kind == CompatKind::kSBPH, options.batch,
                 options.deadline) {
  TFSN_CHECK(cache_ != nullptr);
  options_.workers = std::max<uint32_t>(1, options_.workers);
  // The worker pool is the parallelism; nested seed threads would
  // oversubscribe. Results are identical for every setting.
  options_.greedy.seed_threads = 1;
  workers_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->oracle = MakeOracle(graph, kind, OracleParams{}, cache_);
    worker->former = std::make_unique<GreedyTeamFormer>(
        worker->oracle.get(), skills_, index, options_.greedy);
    {
      // The worker thread does not exist yet; the lock is for the
      // analysis (batch_size_counts is guarded by worker->mu).
      MutexLock lock(&worker->mu);
      worker->batch_size_counts.assign(options_.batch.max_batch + 1, 0);
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread(&TeamFormationServer::WorkerLoop, this, worker.get());
  }
}

TeamFormationServer::~TeamFormationServer() { Shutdown(); }

ScheduledRequest TeamFormationServer::MakeScheduled(TeamRequest request) {
  ScheduledRequest sr;
  sr.admitted = std::chrono::steady_clock::now();
  if (request.deadline_us != 0) {
    sr.deadline = sr.admitted + std::chrono::microseconds(request.deadline_us);
  }
  sr.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  sr.request = std::move(request);
  return sr;
}

Status TeamFormationServer::AdmitCheck(const TeamRequest& request) const {
  if (request.deadline_us == 0 ||
      options_.deadline.shed < ShedMode::kAdmission) {
    return Status::OK();
  }
  const uint64_t expected = QueueWaitEstimateUs() + ServiceEstimateUs();
  if (expected > request.deadline_us) {
    return Status::DeadlineExceeded(
        "deadline infeasible at admission: expected latency ~" +
        std::to_string(expected) + "us exceeds budget " +
        std::to_string(request.deadline_us) + "us; retry after ~" +
        std::to_string(RetryAfterMs()) + "ms");
  }
  return Status::OK();
}

Status TeamFormationServer::Submit(TeamRequest request,
                                   std::future<TeamResponse>* response) {
  Status admit = AdmitCheck(request);
  if (!admit.ok()) return admit;
  ScheduledRequest sr = MakeScheduled(std::move(request));
  std::future<TeamResponse> fut = sr.promise.get_future();
  Status pushed = queue_.Push(std::move(sr));
  if (!pushed.ok()) return pushed;
  *response = std::move(fut);
  return Status::OK();
}

Status TeamFormationServer::TrySubmit(TeamRequest request,
                                      std::future<TeamResponse>* response) {
  Status admit = AdmitCheck(request);
  if (!admit.ok()) return admit;
  ScheduledRequest sr = MakeScheduled(std::move(request));
  std::future<TeamResponse> fut = sr.promise.get_future();
  Status pushed = queue_.TryPush(&sr);
  if (pushed.IsResourceExhausted()) {
    return Status::ResourceExhausted("admission queue full; retry after ~" +
                                     std::to_string(RetryAfterMs()) + "ms");
  }
  if (!pushed.ok()) return pushed;
  *response = std::move(fut);
  return Status::OK();
}

void TeamFormationServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();  // workers drain every admitted request, then exit
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    // Safety net: workers normally drain everything before exiting, so
    // both sweeps below are empty — but a request admitted in the races
    // around Close, or left behind by a worker that died mid-fault, must
    // not leave its future blocking forever. Fulfill whatever is still
    // admitted with a typed shutdown response.
    ScheduledRequest sr;
    while (queue_.TryPop(&sr)) {
      FulfillError(&sr, Status::Unavailable("server shut down before serving"));
    }
    std::vector<ScheduledRequest> leftover;
    scheduler_.TakePending(&leftover);
    for (ScheduledRequest& s : leftover) {
      FulfillError(&s, Status::Unavailable("server shut down before serving"));
    }
  });
}

void TeamFormationServer::ServeDegraded(Worker* worker, ScheduledRequest* sr,
                                        uint32_t batch_size) {
  const auto service_start = std::chrono::steady_clock::now();
  // Even the cheapest tier costs something. Triage only checked that the
  // deadline had not yet passed; if the remaining budget cannot fund a
  // typical degraded serve either, answering would just be late — shed
  // with the typed response instead so the accepted tail stays inside
  // the SLO.
  if (service_start >= sr->deadline ||
      MicrosBetween(service_start, sr->deadline) <
          DegradedEstimateUs() + options_.deadline.slack_us) {
    {
      MutexLock lock(&worker->mu);
      ++worker->shed;
    }
    FulfillError(
        sr, Status::DeadlineExceeded("deadline cannot be met by any tier"));
    return;
  }
  TeamResponse resp;
  resp.id = sr->request.id;
  resp.batch_size = batch_size;
  resp.used_shared_view = false;
  bool served = false;
  auto view = TaskCompatView::BuildFromCachedRows(
      worker->oracle.get(), skills_, sr->request.task,
      HolderUniverse(skills_, sr->request.task.skills()),
      options_.batch.max_view_bytes);
  if (view != nullptr) {
    Rng rng(sr->request.rng_seed);
    TeamResult result =
        worker->former->FormWithView(*view, sr->request.task, &rng);
    // With no missed row, every row the formation read was real, so the
    // outcome — even a "no team exists" verdict — is the exact answer.
    // Otherwise it only counts when it actually found a team: a miss may
    // just mean the missing rows held the answer.
    const bool exact = view->missed_rows() == 0;
    if (exact || result.found) {
      resp.result = std::move(result);
      resp.degraded = !exact;
      served = true;
    }
  }
  if (!served) {
    // Cache-only could not answer. Fund an exact standalone Form if the
    // remaining budget still covers one; otherwise no tier can meet the
    // deadline.
    const auto now = std::chrono::steady_clock::now();
    if (sr->deadline > now &&
        MicrosBetween(now, sr->deadline) >=
            ServiceEstimateUs() + options_.deadline.slack_us) {
      Rng rng(sr->request.rng_seed);
      resp.result = worker->former->Form(sr->request.task, &rng);
      resp.degraded = false;
      served = true;
    }
  }
  if (!served) {
    {
      MutexLock lock(&worker->mu);
      ++worker->shed;
    }
    FulfillError(
        sr, Status::DeadlineExceeded("deadline cannot be met by any tier"));
    return;
  }
  const auto done = std::chrono::steady_clock::now();
  resp.queue_us = MicrosBetween(sr->admitted, service_start);
  resp.service_us = MicrosBetween(service_start, done);
  resp.total_us = MicrosBetween(sr->admitted, done);
  // Realized ladder cost (whichever tier answered) feeds the gate above.
  UpdateEwma(&degraded_ewma_us_, resp.service_us);
  FinishServed(worker, sr, std::move(resp));
}

void TeamFormationServer::FinishServed(Worker* worker, ScheduledRequest* sr,
                                       TeamResponse resp) {
  {
    MutexLock lock(&worker->mu);
    ++worker->completed;
    if (resp.degraded) ++worker->degraded;
    worker->queue_us.Record(resp.queue_us);
    worker->service_us.Record(resp.service_us);
    worker->total_us.Record(resp.total_us);
  }
  {
    // Feed the admission-control estimate with the realized queue wait.
    MutexLock lock(&lat_mu_);
    queue_hist_.Record(resp.queue_us);
  }
  sr->promise.set_value(std::move(resp));
}

void TeamFormationServer::WorkerLoop(Worker* worker) {
  RequestBatch batch;
  while (scheduler_.NextBatch(&queue_, &batch)) {
    const uint32_t batch_size = static_cast<uint32_t>(batch.items.size());

    // Overload triage: under ShedMode::kQueue, a member whose deadline
    // already passed is shed here (the scheduler sweeps the queue, but a
    // deadline can expire between batch formation and service), and one
    // whose remaining budget cannot fund the shared build plus its own
    // formation drops to the degradation ladder. Everyone else takes the
    // full exact path below.
    std::vector<ScheduledRequest*> full;
    full.reserve(batch.items.size());
    const bool enforce = options_.deadline.shed >= ShedMode::kQueue;
    const uint64_t est_full =
        enforce ? BuildEstimateUs() + ServiceEstimateUs() +
                      options_.deadline.slack_us
                : 0;
    for (ScheduledRequest& sr : batch.items) {
      if (!enforce ||
          sr.deadline == std::chrono::steady_clock::time_point::max()) {
        full.push_back(&sr);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (sr.deadline <= now) {
        {
          MutexLock lock(&worker->mu);
          ++worker->shed;
        }
        FulfillError(&sr, Status::DeadlineExceeded(
                              "deadline expired before service"));
        continue;
      }
      if (options_.deadline.degrade &&
          MicrosBetween(now, sr.deadline) < est_full) {
        ServeDegraded(worker, &sr, batch_size);
        continue;
      }
      full.push_back(&sr);
    }

    // One shared view (and one StreamRows cache prewarm of the union
    // holder universe) serves the whole group. nullptr — union over the
    // byte budget — falls back to standalone Form per request, which is
    // bit-identical.
    std::unique_ptr<TaskCompatView> view;
    if (!full.empty() && !batch.union_task.empty()) {
      const auto build_start = std::chrono::steady_clock::now();
      view = TaskCompatView::BuildFromUniverse(
          worker->oracle.get(), skills_, batch.union_task,
          std::move(batch.universe), options_.view_build_threads,
          options_.batch.max_view_bytes);
      if (view != nullptr) {
        UpdateEwma(&build_ewma_us_,
                   MicrosBetween(build_start,
                                 std::chrono::steady_clock::now()));
      }
    }
    // Injected view loss after a successful build: every member silently
    // takes the standalone path, which must stay bit-identical.
    if (view != nullptr && TFSN_FAULT_POINT("serve.shared_view_drop")) {
      view.reset();
    }
    for (ScheduledRequest* sr : full) {
      const auto service_start = std::chrono::steady_clock::now();
      // Post-build re-triage: the shared build above runs on cold-start
      // estimates (the EWMAs start at zero), so early batches can burn
      // far more budget than triage predicted. A member whose deadline
      // passed during the build — or whose remainder no longer funds its
      // own formation — drops to the ladder now instead of being served
      // knowingly late.
      if (enforce &&
          sr->deadline != std::chrono::steady_clock::time_point::max()) {
        if (sr->deadline <= service_start) {
          {
            MutexLock lock(&worker->mu);
            ++worker->shed;
          }
          FulfillError(sr, Status::DeadlineExceeded(
                               "deadline expired during the view build"));
          continue;
        }
        if (options_.deadline.degrade &&
            MicrosBetween(service_start, sr->deadline) <
                ServiceEstimateUs() + options_.deadline.slack_us) {
          ServeDegraded(worker, sr, batch_size);
          continue;
        }
      }
      Rng rng(sr->request.rng_seed);
      TeamResponse resp;
      resp.id = sr->request.id;
      resp.batch_size = batch_size;
      resp.used_shared_view = view != nullptr;
      resp.result = view != nullptr
                        ? worker->former->FormWithView(*view, sr->request.task,
                                                       &rng)
                        : worker->former->Form(sr->request.task, &rng);
      const auto done = std::chrono::steady_clock::now();
      resp.queue_us = MicrosBetween(sr->admitted, service_start);
      resp.service_us = MicrosBetween(service_start, done);
      resp.total_us = MicrosBetween(sr->admitted, done);
      UpdateEwma(&service_ewma_us_, resp.service_us);
      FinishServed(worker, sr, std::move(resp));
    }
    {
      MutexLock lock(&worker->mu);
      ++worker->batches;
      if (view != nullptr) {
        ++worker->shared_view_batches;
      } else {
        ++worker->fallback_batches;
      }
      ++worker->batch_size_counts[std::min<size_t>(
          batch_size, worker->batch_size_counts.size() - 1)];
    }
  }
}

ServerMetrics TeamFormationServer::Metrics() const {
  ServerMetrics m;
  m.batch_size_counts.assign(options_.batch.max_batch + 1, 0);
  for (const auto& worker : workers_) {
    MutexLock lock(&worker->mu);
    m.completed += worker->completed;
    m.batches += worker->batches;
    m.shared_view_batches += worker->shared_view_batches;
    m.fallback_batches += worker->fallback_batches;
    m.shed += worker->shed;
    m.degraded += worker->degraded;
    m.queue_us.Merge(worker->queue_us);
    m.service_us.Merge(worker->service_us);
    m.total_us.Merge(worker->total_us);
    for (size_t b = 0; b < worker->batch_size_counts.size(); ++b) {
      m.batch_size_counts[b] += worker->batch_size_counts[b];
    }
  }
  m.shed += scheduler_.shed_count();
  m.cache = cache_->SnapshotCounters();
  return m;
}

uint64_t TeamFormationServer::QueueWaitEstimateUs() const {
  if (options_.deadline.assume_queue_us != 0) {
    return options_.deadline.assume_queue_us;
  }
  MutexLock lock(&lat_mu_);
  return queue_hist_.count() == 0 ? 0 : queue_hist_.ValueAtQuantile(0.5);
}

uint64_t TeamFormationServer::BuildEstimateUs() const {
  if (options_.deadline.assume_build_us != 0) {
    return options_.deadline.assume_build_us;
  }
  return build_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::ServiceEstimateUs() const {
  if (options_.deadline.assume_service_us != 0) {
    return options_.deadline.assume_service_us;
  }
  return service_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::DegradedEstimateUs() const {
  // No assume_* override: the ladder gate starts optimistic (0 — serve
  // and see) and adapts to the realized degraded-tier cost. Tests pin the
  // *entry* to the ladder via assume_build/assume_service instead.
  return degraded_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::RetryAfterMs() const {
  const uint64_t us = QueueWaitEstimateUs() + ServiceEstimateUs();
  return std::max<uint64_t>(1, us / 1000);
}

}  // namespace tfsn::serve
