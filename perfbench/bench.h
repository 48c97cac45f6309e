// Shared pieces of the repository benchmark: options, the metric report,
// the fixture every workload builds, the single-thread reference former
// that checks every returned team, and small statistics helpers.
//
// The benchmark drives the library only through its public API; every
// counter it reports is read through a public accessor around its calls.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/tfsn.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: small fixtures and short phases, for the benchmark's own
  /// tests. Timings at this size mean nothing.
  bool smoke = false;
  /// Directory for the trace files and the spill store (inside the
  /// checkout).
  std::string work_dir = ".bench_build/work";
  /// Provenance passed in by the wrapper script.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Named metric values of one run, printed in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit);
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome of one workload run. The workload sets `correct` false (and
/// says why on stderr) on any team mismatch or broken accounting.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report metrics;
};

/// Thread budget of every workload (the machine's core count the
/// benchmark was written for).
inline constexpr uint32_t kThreadBudget = 4;

/// Fixture scale of --smoke runs (n = 1,442).
inline constexpr double kSmokeScale = 0.05;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// The fixture: a synthetic Epinions-like dataset, the cache the system
/// under test uses, an oracle on it and the skill compatibility index the
/// LC skill policy needs (built through that oracle, as the CLI does).
struct Fixture {
  tfsn::Dataset ds;
  std::shared_ptr<tfsn::RowCache> cache;
  std::unique_ptr<tfsn::CompatibilityOracle> oracle;
  std::unique_ptr<tfsn::SkillCompatibilityIndex> index;
  double index_build_s = 0;
};

/// Builds the fixture at `scale` with the given cache; the index samples
/// 300 sources on graphs above 2000 nodes and computes rows on
/// kThreadBudget threads, as `tfsn_cli` does.
std::unique_ptr<Fixture> MakeFixture(double scale,
                                     tfsn::RowCacheOptions cache_options);

/// The relation every workload forms teams under.
inline constexpr tfsn::CompatKind kRelation = tfsn::CompatKind::kSPM;

/// Exact equality of everything a caller sees in a team.
bool SameTeam(const tfsn::TeamResult& a, const tfsn::TeamResult& b);
/// FNV-1a over (found, members, cost, objective, seed tallies).
uint64_t TeamDigest(const tfsn::TeamResult& r);

/// The reference the benchmark checks every team against: direct
/// GreedyTeamFormer::Form with the caller's greedy policies and
/// evaluation path but one thread (no prefetch, serial seed loop), on a
/// private unbounded cache shared by nothing under test. Several
/// references run side by side to keep the check short; each one is
/// still a single-thread Form call.
class Reference {
 public:
  Reference(const Fixture& fx, tfsn::GreedyParams params);
  /// Reference teams for `requests`, in order.
  std::vector<tfsn::TeamResult> FormAll(
      const std::vector<const tfsn::serve::TeamRequest*>& requests);

 private:
  const Fixture& fx_;
  tfsn::GreedyParams params_;
  std::shared_ptr<tfsn::RowCache> cache_;
};

/// Tallies team checks; any mismatch makes the run incorrect.
struct TeamCheck {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  /// Degraded responses are exempt from the check and counted here.
  uint64_t skipped_degraded = 0;
  tfsn::Fnv1a digest;  // over (id, team digest) of every checked team
  Clock::time_point started = Clock::now();

  void Compare(uint64_t id, const tfsn::TeamResult& got,
               const tfsn::TeamResult& want);
  /// Prints the tally; false when any team mismatched.
  bool Finish(const char* what) const;
};

/// Nearest-rank quantile of `v` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);
/// The middle value, or the mean of the two middle values; 0 when empty.
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Process high-water resident set size, MiB.
double PeakRssMb();

/// Seconds since the process started (steady clock).
double SecondsSinceStart();

/// Runs `make` kSetupReps times, destroying the previous set-up first,
/// keeps the last one in *out and returns the median set-up time. The
/// first repetition counts from process start.
template <typename T, typename Make>
double RepeatSetup(const Make& make, std::unique_ptr<T>* out) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = rep == 0 ? 0.0 : SecondsSinceStart();
    out->reset();
    *out = make(rep);
    times.push_back(SecondsSinceStart() - t0);
  }
  return Median(times);
}

/// Prints the provenance block (hardware, build, inputs) as one line of
/// JSON prefixed with "provenance ".
void PrintProvenance(const Options& opt, const Fixture& fx,
                     const std::string& extra_json);

/// Writes the traced run's spans and its self-time table, adds the
/// per-layer self-time metrics to `out`, and checks that the stages'
/// self times cover the traced window's wall clock within
/// kSelfTimeTolerance. Returns false when they do not.
bool ReportTrace(const Options& opt, const Tracer& tracer, int64_t window_start,
                 int64_t window_end, Report* out);

/// Largest share of a traced window that may lie outside every span.
inline constexpr double kSelfTimeTolerance = 0.02;

/// Checks attempted == completed + dropped + rejected + shed +
/// unavailable + errored; prints the identity and returns false when it
/// does not hold.
bool CheckAccounting(uint64_t attempted, uint64_t completed, uint64_t dropped,
                     uint64_t rejected, uint64_t shed, uint64_t unavailable,
                     uint64_t errored);

/// Bytes to MiB.
inline double MiB(double bytes) { return bytes / (1024.0 * 1024.0); }

/// The cache.* per-layer metrics from a counter delta and the resident
/// bytes at its end.
void SetCacheMetrics(const tfsn::RowCache::StatsSnapshot& delta,
                     double resident_mb, Report* out);

RunResult RunFormCold(const Options& opt);
RunResult RunServeHot(const Options& opt);

}  // namespace perfbench
