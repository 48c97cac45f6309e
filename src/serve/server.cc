#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/team/task_view.h"
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
      queue_(options.queue_capacity) {
  TFSN_CHECK(cache_ != nullptr);
  options_.workers = std::max<uint32_t>(1, options_.workers);
  // The worker pool is the parallelism; nested seed threads would
  // oversubscribe. A prefetch would compute every holder's row where the
  // seed loop reads only some of them. Results are identical for every
  // setting.
  options_.greedy.seed_threads = 1;
  options_.greedy.prefetch_threads = 0;
  workers_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->oracle = MakeOracle(graph, kind, OracleParams{}, cache_);
    worker->former = std::make_unique<GreedyTeamFormer>(
        worker->oracle.get(), skills_, index, options_.greedy);
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
    // this sweep is empty — but a request admitted in the races around
    // Close, or left behind by a worker that died mid-fault, must not
    // leave its future blocking forever. Fulfill whatever is still
    // admitted with a typed shutdown response.
    ScheduledRequest sr;
    while (queue_.TryPop(&sr)) {
      FulfillError(&sr, Status::Unavailable("server shut down before serving"));
    }
  });
}

void TeamFormationServer::Shed(Worker* worker, ScheduledRequest* sr,
                               const char* why) {
  {
    MutexLock lock(&worker->mu);
    ++worker->shed;
  }
  FulfillError(sr, Status::DeadlineExceeded(why));
}

void TeamFormationServer::ServeFull(Worker* worker, ScheduledRequest* sr) {
  const auto service_start = std::chrono::steady_clock::now();
  const uint64_t fallbacks = worker->former->oracle_fallbacks();
  Rng rng(sr->request.rng_seed);
  TeamResponse resp;
  resp.id = sr->request.id;
  resp.result = worker->former->Form(sr->request.task, &rng);
  const bool fell_back = worker->former->oracle_fallbacks() != fallbacks;
  resp.used_view =
      options_.greedy.eval_path == GreedyEvalPath::kView && !fell_back;
  const auto done = std::chrono::steady_clock::now();
  resp.queue_us = MicrosBetween(sr->admitted, service_start);
  resp.service_us = MicrosBetween(service_start, done);
  resp.total_us = MicrosBetween(sr->admitted, done);
  UpdateEwma(&service_ewma_us_, resp.service_us);
  {
    MutexLock lock(&worker->mu);
    ++worker->batches;
    if (resp.used_view) ++worker->shared_view_batches;
    if (fell_back) ++worker->fallback_batches;
  }
  FinishServed(worker, sr, std::move(resp));
}

void TeamFormationServer::ServeDegraded(Worker* worker, ScheduledRequest* sr) {
  const auto service_start = std::chrono::steady_clock::now();
  // Even the cheapest tier costs something. Triage only checked that the
  // deadline had not yet passed; if the remaining budget cannot fund a
  // typical degraded serve either, answering would just be late — shed
  // with the typed response instead so the accepted tail stays inside
  // the SLO.
  if (service_start >= sr->deadline ||
      MicrosBetween(service_start, sr->deadline) <
          DegradedEstimateUs() + options_.deadline.slack_us) {
    Shed(worker, sr, "deadline cannot be met by any tier");
    return;
  }
  auto view = TaskCompatView::BuildFromCachedRows(
      worker->oracle.get(), skills_, sr->request.task,
      HolderUniverse(skills_, sr->request.task.skills()),
      options_.greedy.view_max_bytes);
  if (view == nullptr) {
    Shed(worker, sr, "deadline cannot be met by any tier");
    return;
  }
  Rng rng(sr->request.rng_seed);
  TeamResult result =
      worker->former->FormWithView(*view, sr->request.task, &rng);
  // With no missed row, every row the formation read was real, so the
  // outcome — even a "no team exists" verdict — is the exact answer.
  // Otherwise it only counts when it actually found a team: a miss may
  // just mean the missing rows held the answer.
  const bool exact = view->missed_rows() == 0;
  if (!exact && !result.found) {
    Shed(worker, sr, "deadline cannot be met by any tier");
    return;
  }
  TeamResponse resp;
  resp.id = sr->request.id;
  resp.result = std::move(result);
  resp.degraded = !exact;
  const auto done = std::chrono::steady_clock::now();
  resp.queue_us = MicrosBetween(sr->admitted, service_start);
  resp.service_us = MicrosBetween(service_start, done);
  resp.total_us = MicrosBetween(sr->admitted, done);
  // Realized ladder cost feeds the gate above.
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
  const bool enforce = options_.deadline.shed >= ShedMode::kQueue;
  ScheduledRequest sr;
  while (queue_.Pop(&sr)) {
    // Overload triage under ShedMode::kQueue: a request whose deadline
    // already passed is shed, and one whose remaining budget cannot fund
    // a Form drops to the degradation ladder. Everyone else takes the
    // full exact path.
    if (enforce &&
        sr.deadline != std::chrono::steady_clock::time_point::max()) {
      const auto now = std::chrono::steady_clock::now();
      if (sr.deadline <= now) {
        Shed(worker, &sr, "deadline expired before service");
        continue;
      }
      if (options_.deadline.degrade &&
          MicrosBetween(now, sr.deadline) <
              ServiceEstimateUs() + options_.deadline.slack_us) {
        ServeDegraded(worker, &sr);
        continue;
      }
    }
    ServeFull(worker, &sr);
  }
}

ServerMetrics TeamFormationServer::Metrics() const {
  ServerMetrics m;
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
  }
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

uint64_t TeamFormationServer::ServiceEstimateUs() const {
  if (options_.deadline.assume_service_us != 0) {
    return options_.deadline.assume_service_us;
  }
  return service_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::DegradedEstimateUs() const {
  // No assume_* override: the ladder gate starts optimistic (0 — serve
  // and see) and adapts to the realized degraded-tier cost. Tests pin the
  // *entry* to the ladder via assume_service_us instead.
  return degraded_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::RetryAfterMs() const {
  const uint64_t us = QueueWaitEstimateUs() + ServiceEstimateUs();
  return std::max<uint64_t>(1, us / 1000);
}

}  // namespace tfsn::serve
