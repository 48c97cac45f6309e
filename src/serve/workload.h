// Workload generation for the serving layer.
//
// Tasks are sampled with Zipf-distributed skill popularity — the same
// heavy-tailed regime the paper's datasets exhibit: hot skills recur
// across nearby requests, so their rows are reused through the shared
// row cache. Two load shapes drive the server:
//
//   * Open loop (RunOpenLoop): Poisson arrivals at a fixed rate,
//     submitted with TrySubmit — a saturated server drops (and counts)
//     arrivals instead of stalling the generator, so measured latency
//     reflects the configured rate, not the service rate.
//   * Closed loop (RunClosedLoop): N client threads each keep exactly one
//     request in flight — the standard way to measure peak sustainable
//     throughput.
//
// Request streams are pre-generated and deterministic in the workload
// seed: request i carries id = i and its own derived rng_seed, so any two
// runs over the same stream — whatever the worker count or loop shape —
// produce bit-identical teams per request (the fixed-seed
// replay mode of `tfsn_cli serve` is exactly this).

#pragma once

#include <cstdint>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/serve/server.h"
#include "src/serve/types.h"
#include "src/skills/skills.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace tfsn::serve {

/// Samples tasks whose skills follow skill popularity: skills are ranked
/// by holder count descending and rank r is drawn ∝ (r+1)^-s, so small
/// exponents spread load over the catalog while s >= 1 concentrates it on
/// the head (maximal footprint overlap).
class ZipfTaskSampler {
 public:
  /// Only skills with at least one holder participate. `exponent` is the
  /// Zipf s parameter.
  ZipfTaskSampler(const SkillAssignment& skills, double exponent);

  /// Draws a task of `task_size` distinct skills (capped at the number of
  /// held skills) by rejection over the rank distribution.
  Task Sample(uint32_t task_size, Rng* rng) const;

  uint32_t num_skills() const { return static_cast<uint32_t>(by_rank_.size()); }

 private:
  std::vector<SkillId> by_rank_;  // held skills, holder count descending
  ZipfSampler zipf_;
};

/// Tier-2 prewarm tuning (see PrewarmZipfHead).
struct PrewarmOptions {
  /// Fraction of distinct skill holders to prewarm, hottest first
  /// (ceil(fraction * holders) rows). 0 disables the prewarm.
  double fraction = 0;
  /// Zipf exponent of the workload the ranking anticipates — pass the
  /// same value as WorkloadOptions::zipf_exponent.
  double zipf_exponent = 1.0;
  /// Worker threads for the batched row computation (0 = hardware).
  uint32_t threads = 0;
  /// Sources per GetRows batch (bounds peak pinned memory; multiples of
  /// 64 feed full blocks to the bit-parallel engine).
  size_t batch = 256;
};

/// What a prewarm pass did.
struct PrewarmReport {
  /// Distinct holders of at least one skill (the ranking universe).
  uint64_t holders_ranked = 0;
  /// Rows actually streamed into the cache (the hot head).
  uint64_t rows_prewarmed = 0;
  double seconds = 0;
};

/// Tier 2 of the tiered row store: bulk-computes the rows a Zipf workload
/// is about to ask for, before the server opens.
///
/// ZipfTaskSampler draws skill ranks ∝ (r+1)^-s over skills ordered by
/// holder count, so a holder's chance of appearing in a task footprint is
/// driven by the Zipf weight of the skills they hold. The prewarm scores
/// every holder by Σ (rank(s)+1)^-s over their held skills — the same
/// ranking, the same exponent — sorts descending (ties by id, fully
/// deterministic), and streams the top `fraction` of holders through the
/// oracle's batched API (64-way MS-BFS blocks for the batchable
/// relations). Rows land in the oracle's RowCache, compressed and
/// spillable per its tiers; an already-cached row costs one probe.
///
/// Call it on an oracle sharing the server's cache (same graph, kind, and
/// params as the workers' oracles — key fingerprints must match) before
/// accepting traffic.
PrewarmReport PrewarmZipfHead(CompatibilityOracle* oracle,
                              const SkillAssignment& skills,
                              const PrewarmOptions& options);

/// Workload shape shared by the generators and the CLI/bench front ends.
struct WorkloadOptions {
  /// Skills per task.
  uint32_t task_size = 3;
  /// Zipf exponent of the skill sampler.
  double zipf_exponent = 1.0;
  /// Seed of the request stream (tasks and per-request rng seeds).
  uint64_t seed = 1;
  /// Requests in the stream.
  uint32_t num_requests = 200;
};

/// The deterministic request stream for `options`: request i has id = i,
/// a Zipf-sampled task, and a SplitMix64-derived rng_seed.
std::vector<TeamRequest> GenerateRequests(const SkillAssignment& skills,
                                          const WorkloadOptions& options);

/// Outcome of one workload run. The accounting identity per stream:
/// every generated request is exactly one of {dropped, rejected,
/// submitted}, and every submitted request yields exactly one response —
/// completed (OK; `degraded` counts its degraded subset) or shed
/// (DeadlineExceeded) or unavailable (server shut down first).
struct WorkloadResult {
  /// Requests admitted into the server (a future exists for each).
  uint64_t submitted = 0;
  /// Open loop only: arrivals refused by a full queue (backpressure).
  uint64_t dropped = 0;
  /// Arrivals refused by admission control (deadline infeasible) — a
  /// different signal than `dropped`: the caller was told to retry later,
  /// not that the queue was full.
  uint64_t rejected = 0;
  /// Admitted requests whose response is OK (a team or an exact "no
  /// team"). completed + shed + unavailable == submitted.
  uint64_t completed = 0;
  /// Admitted requests fulfilled with DeadlineExceeded (expired in queue
  /// or unfundable by any serving tier).
  uint64_t shed = 0;
  /// Completed responses served from an incomplete cache-only view
  /// (TeamResponse::degraded) — a subset of `completed`.
  uint64_t degraded = 0;
  /// Admitted requests fulfilled with Unavailable (shutdown drain).
  uint64_t unavailable = 0;
  /// Wall clock from the first submission to the last response.
  double seconds = 0;
  /// Every fulfilled response (including shed ones), ascending by id.
  std::vector<TeamResponse> responses;
};

/// Poisson arrivals at `qps` (inter-arrival times drawn from
/// `arrival_rng`), one generator thread, TrySubmit semantics (see file
/// comment). Blocks until every accepted request completed.
WorkloadResult RunOpenLoop(TeamFormationServer* server,
                           std::vector<TeamRequest> requests, double qps,
                           Rng* arrival_rng);

/// `clients` threads each keep one request in flight until the stream is
/// exhausted. Blocks until every request completed.
WorkloadResult RunClosedLoop(TeamFormationServer* server,
                             std::vector<TeamRequest> requests,
                             uint32_t clients);

/// Saturation / replay mode: the whole stream is submitted back to back
/// from the calling thread (blocking Push — size the server's queue for
/// the stream), then every response is awaited. The admission queue stays
/// as deep as the remaining stream, so no worker ever idles: this
/// measures peak service throughput without client-thread scheduling
/// noise, and is the deterministic fixed-seed replay mode of `tfsn_cli
/// serve` (no pacing, no drops).
WorkloadResult RunBurst(TeamFormationServer* server,
                        std::vector<TeamRequest> requests);

}  // namespace tfsn::serve
