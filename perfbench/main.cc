// tfsn_perfbench: the repository benchmark driver.
//
//   tfsn_perfbench --workload=form_cold|serve_hot
//                  --seed=N --seconds=S [--trace=0|1] [--smoke]
//                  [--work-dir=DIR] [--commit=SHA] [--source-digest=HEX]
//
// Prints a provenance line, what it checked, and (traced runs) the
// per-stage self-time table; the last line is the result object
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). Every returned team is checked against a single-thread
// GreedyTeamFormer::Form; on a mismatch or a broken accounting identity
// the program exits 1 without printing a result. perfbench/run.py builds
// this program and is the benchmark's command.

#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using perfbench::Options;
  using perfbench::RunResult;
  tfsn::Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.GetString("workload");
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.seconds = flags.GetDouble("seconds", 10);
  opt.trace = flags.GetInt("trace", 0) != 0;
  opt.smoke = flags.GetBool("smoke");
  opt.work_dir = flags.GetString("work_dir", opt.work_dir);
  opt.commit = flags.GetString("commit", opt.commit);
  opt.source_digest = flags.GetString("source_digest", opt.source_digest);
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  RunResult run;
  if (opt.workload == "form_cold") {
    run = perfbench::RunFormCold(opt);
  } else if (opt.workload == "serve_hot") {
    run = perfbench::RunServeHot(opt);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (form_cold|serve_hot)\n",
                 opt.workload.c_str());
    return 2;
  }
  if (!run.correct) {
    std::fprintf(stderr, "%s: run failed its checks; no result\n",
                 opt.workload.c_str());
    return 1;
  }
  std::printf("%s\n",
              run.metrics.ResultJson(run.correct, run.attempted, run.failed)
                  .c_str());
  return 0;
}
