// End-to-end fault matrix (built only with -DTFSN_FAULTS=ON, ctest label
// "faults"): replays one burst workload through the tiered serving stack
// under every registered fault schedule and asserts the robustness
// contract the injection points exist to prove:
//
//   1. no crash — every run completes;
//   2. no abandoned promise — every admitted request gets a response;
//   3. no silent corruption — every successful, non-degraded response is
//      digest-identical to the fault-free run (faults may only cost
//      recomputation, never change an answer).
//
// The cache is sized to starve (8 resident rows over a spill store), so
// burst traffic continuously exercises insert, eviction/append, spill
// read/promote, and mmap paths — each fault point fires many times per
// run (asserted via FireCount). The spill reopen scan is a separate case:
// it only runs at store construction, so it gets its own test.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/compat/row_spill.h"
#include "src/compat/skill_index.h"
#include "src/gen/generators.h"
#include "src/serve/server.h"
#include "src/serve/workload.h"
#include "src/skills/skill_generator.h"
#include "src/util/fault_injection.h"
#include "src/util/fnv1a.h"
#include "src/util/rng.h"

namespace tfsn::serve {
namespace {

static_assert(kFaultsEnabled,
              "fault_matrix_test must be built with -DTFSN_FAULTS=ON");

struct Instance {
  SignedGraph graph;
  SkillAssignment skills;
};

Instance MakeInstance() {
  Rng rng(21);
  Instance inst{RandomConnectedGnm(80, 200, 0.25, &rng), {}};
  ZipfSkillParams sp;
  sp.num_skills = 15;
  inst.skills = ZipfSkills(80, sp, &rng);
  return inst;
}

// Digest over successful, non-degraded responses — the CLI's replay
// digest. Shed/unavailable/degraded responses are excluded by contract.
uint64_t ExactDigest(const std::vector<TeamResponse>& responses) {
  Fnv1a digest;
  for (const TeamResponse& resp : responses) {
    if (!resp.status.ok() || resp.degraded) continue;
    digest.Mix(resp.id);
    digest.Mix(resp.result.found ? resp.result.cost : ~uint64_t{0});
    for (NodeId member : resp.result.members) digest.Mix(member);
  }
  return digest.digest();
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().Reset(); }
  void TearDown() override { FaultRegistry::Instance().Reset(); }

  // One burst of 60 requests through a fresh tiered stack (starved cache
  // over a fresh spill dir). Fresh state per run keeps runs independent:
  // a fault in run k must not leak state into run k+1.
  WorkloadResult RunOnce(const std::string& tag) {
    const std::string spill_dir =
        (std::filesystem::path(::testing::TempDir()) / ("fault-" + tag))
            .string();
    std::filesystem::remove_all(spill_dir);
    auto spill = std::make_shared<RowSpillStore>(spill_dir);
    EXPECT_TRUE(spill->ok());
    RowCacheOptions copts;
    copts.compress = true;
    copts.spill = spill;
    copts.max_rows = 8;  // starve tier 0: rows churn through disk
    copts.shards = 2;
    auto cache = std::make_shared<RowCache>(copts);
    auto oracle =
        MakeOracle(inst_.graph, CompatKind::kSPM, OracleParams{}, cache);
    Rng idx_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst_.skills, 0, &idx_rng);

    ServerOptions options;
    options.workers = 2;
    TeamFormationServer server(inst_.graph, inst_.skills, &index,
                               CompatKind::kSPM, cache, options);
    WorkloadOptions wopts;
    wopts.num_requests = 60;
    wopts.seed = 77;
    WorkloadResult run =
        RunBurst(&server, GenerateRequests(inst_.skills, wopts));
    server.Shutdown();
    std::filesystem::remove_all(spill_dir);
    return run;
  }

  Instance inst_ = MakeInstance();
};

TEST_F(FaultMatrixTest, EveryFaultScheduleKeepsAnswersDigestIdentical) {
  const WorkloadResult reference = RunOnce("reference");
  ASSERT_EQ(reference.completed, 60u);
  const uint64_t want = ExactDigest(reference.responses);

  // The matrix: every fault point the burst path can reach, with a
  // schedule aggressive enough to fire repeatedly. (scan_corrupt only
  // runs at store reopen — see SpillReopenScanCorruption below.)
  const std::vector<std::pair<std::string, std::string>> matrix = {
      {"row_cache.insert_drop", "every:3"},
      {"row_cache.promote_fail", "every:2"},
      {"row_spill.append_enospc", "every:2"},
      {"row_spill.append_short_write", "every:3"},
      {"row_spill.read_crc_flip", "every:2"},
      {"row_spill.mmap_fail", "every:2"},
      {"task_view.build_fail", "every:2"},
      {"row_cache.insert_drop", "p:0.3:7"},
      {"row_spill.append_enospc", "always"},
      {"task_view.build_fail", "always"},
  };
  for (const auto& [point, schedule_text] : matrix) {
    SCOPED_TRACE(point + ":" + schedule_text);
    auto& reg = FaultRegistry::Instance();
    reg.Reset();
    FaultSchedule schedule;
    ASSERT_TRUE(FaultRegistry::ParseSchedule(schedule_text, &schedule));
    reg.Arm(point, schedule);

    const WorkloadResult run = RunOnce(point + "-" + schedule_text);
    // Contract 2: every admitted promise fulfilled.
    ASSERT_EQ(run.responses.size(), run.submitted);
    ASSERT_EQ(run.completed, 60u) << "faults must never shed or drop "
                                     "deadline-free requests";
    // The point was actually exercised, or the matrix is testing nothing.
    EXPECT_GT(reg.FireCount(point), 0u) << "fault never fired";
    // Contract 3: answers are bit-identical (faults cost recomputation
    // only — every injected failure path recovers exactly).
    EXPECT_EQ(ExactDigest(run.responses), want) << "answers diverged";
  }
}

TEST_F(FaultMatrixTest, ShutdownMidFaultFulfillsEveryPromise) {
  // Every view build fails inside each worker's Form (forcing the oracle
  // fallback) + a concurrent shutdown: whatever the races, no admitted
  // future may block forever and no successful answer may diverge.
  auto& reg = FaultRegistry::Instance();
  FaultSchedule schedule;
  ASSERT_TRUE(FaultRegistry::ParseSchedule("always", &schedule));
  reg.Arm("task_view.build_fail", schedule);
  reg.Arm("row_cache.insert_drop", schedule);

  auto cache = std::make_shared<RowCache>();
  auto oracle =
      MakeOracle(inst_.graph, CompatKind::kSPM, OracleParams{}, cache);
  Rng idx_rng(3);
  SkillCompatibilityIndex index(oracle.get(), inst_.skills, 0, &idx_rng);
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 2048;
  TeamFormationServer server(inst_.graph, inst_.skills, &index,
                             CompatKind::kSPM, cache, options);

  WorkloadOptions wopts;
  wopts.num_requests = 200;
  wopts.seed = 77;
  auto requests = GenerateRequests(inst_.skills, wopts);
  std::vector<std::future<TeamResponse>> futures;
  for (TeamRequest& req : requests) {
    std::future<TeamResponse> fut;
    const Status st = server.Submit(std::move(req), &fut);
    if (st.IsUnavailable()) break;
    ASSERT_TRUE(st.ok());
    futures.push_back(std::move(fut));
  }
  std::thread closer([&server] { server.Shutdown(); });
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "future " << i << " blocked through shutdown under faults";
    const TeamResponse resp = futures[i].get();
    EXPECT_TRUE(resp.status.ok() || resp.status.IsUnavailable())
        << resp.status.ToString();
    if (resp.status.ok()) {
      EXPECT_FALSE(resp.used_view);
    }
  }
  closer.join();
  // Every full-path Form lost its view and ran the oracle loop.
  const ServerMetrics m = server.Metrics();
  EXPECT_GT(reg.FireCount("task_view.build_fail"), 0u);
  EXPECT_EQ(m.shared_view_batches, 0u);
  EXPECT_EQ(m.fallback_batches, m.batches);
}

TEST_F(FaultMatrixTest, SpillReopenScanCorruption) {
  // scan_corrupt fires in the reopen scan: records whose CRC check is
  // forced to fail are dropped (counted, never served), the store stays
  // usable, and re-reading a dropped key degrades to a miss.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "fault-reopen").string();
  std::filesystem::remove_all(dir);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  {
    RowSpillStore store(dir);
    ASSERT_TRUE(store.ok());
    for (uint64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(store.Append(k, payload));
    }
  }
  auto& reg = FaultRegistry::Instance();
  FaultSchedule schedule;
  ASSERT_TRUE(FaultRegistry::ParseSchedule("every:2", &schedule));
  reg.Arm("row_spill.scan_corrupt", schedule);
  {
    RowSpillStore store(dir);
    ASSERT_TRUE(store.ok());
    EXPECT_GT(reg.FireCount("row_spill.scan_corrupt"), 0u);
    EXPECT_GT(store.stats().corrupt_dropped, 0u);
    EXPECT_LT(store.stats().records, 10u);
    // Surviving records still read back intact; dropped ones are misses.
    reg.Reset();
    size_t readable = 0;
    for (uint64_t k = 0; k < 10; ++k) {
      std::vector<uint8_t> got;
      if (store.Read(k, &got)) {
        EXPECT_EQ(got, payload);
        ++readable;
      }
    }
    EXPECT_EQ(readable, store.stats().records);
    // The store keeps accepting appends after a corrupted scan.
    EXPECT_TRUE(store.Append(99, payload));
    std::vector<uint8_t> got;
    EXPECT_TRUE(store.Read(99, &got));
    EXPECT_EQ(got, payload);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tfsn::serve
