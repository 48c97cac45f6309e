#include "perfbench/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "src/util/timer.h"

namespace perfbench {

using namespace tfsn;

void Report::Set(const std::string& name, double value, const char* unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
    std::snprintf(buf, sizeof(buf), "\": {\"value\": %.17g, \"unit\": \"", v);
    out += (i == 0 ? "\"" : ", \"") + entries_[i].name + buf +
           entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::unique_ptr<Fixture> MakeFixture(double scale,
                                     RowCacheOptions cache_options) {
  auto fx = std::make_unique<Fixture>();
  DatasetOptions options;
  options.scale = scale;
  fx->ds = MakeDatasetByName("epinions", options).ValueOrDie();
  fx->cache = std::make_shared<RowCache>(std::move(cache_options));
  fx->oracle = MakeOracle(fx->ds.graph, kRelation, OracleParams{}, fx->cache);
  Rng rng(7);
  Timer timer;
  fx->index = std::make_unique<SkillCompatibilityIndex>(
      fx->oracle.get(), fx->ds.skills,
      fx->ds.graph.num_nodes() > 2000 ? 300 : 0, &rng, kThreadBudget);
  fx->index_build_s = timer.Seconds();
  return fx;
}

bool SameTeam(const TeamResult& a, const TeamResult& b) {
  return a.found == b.found && a.members == b.members && a.cost == b.cost &&
         a.objective == b.objective && a.seeds_tried == b.seeds_tried &&
         a.seeds_succeeded == b.seeds_succeeded;
}

uint64_t TeamDigest(const TeamResult& r) {
  Fnv1a h;
  h.Mix(r.found);
  h.Mix(r.members.size());
  for (NodeId m : r.members) h.Mix(m);
  h.Mix(r.cost);
  h.Mix(r.objective);
  h.Mix(r.seeds_tried);
  h.Mix(r.seeds_succeeded);
  return h.digest();
}

Reference::Reference(const Fixture& fx, GreedyParams params)
    : fx_(fx), params_(params) {
  params_.prefetch_threads = 0;
  params_.seed_threads = 1;
  RowCacheOptions options;
  options.max_bytes = 0;  // never evict: a row is computed once
  cache_ = std::make_shared<RowCache>(options);
}

std::vector<TeamResult> Reference::FormAll(
    const std::vector<const serve::TeamRequest*>& requests) {
  std::vector<TeamResult> out(requests.size());
  // Lock-free ordering contract: `next` hands each index to one thread
  // (relaxed — the joins below publish the results).
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreadBudget; ++t) {
    pool.emplace_back([&] {
      auto oracle = MakeOracle(fx_.ds.graph, kRelation, OracleParams{}, cache_);
      GreedyTeamFormer former(oracle.get(), fx_.ds.skills, fx_.index.get(),
                              params_);
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        Rng rng(requests[i]->rng_seed);
        out[i] = former.Form(requests[i]->task, &rng);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

void TeamCheck::Compare(uint64_t id, const TeamResult& got,
                        const TeamResult& want) {
  ++checked;
  if (!SameTeam(got, want)) {
    if (mismatched++ < 5) {
      std::fprintf(stderr,
                   "team mismatch on request %" PRIu64 ": got %016" PRIx64
                   " want %016" PRIx64 "\n",
                   id, TeamDigest(got), TeamDigest(want));
    }
  }
  digest.Mix(id);
  digest.Mix(TeamDigest(got));
}

bool TeamCheck::Finish(const char* what) const {
  std::printf("check      %s: %" PRIu64 " teams vs single-thread Form, %" PRIu64
              " mismatched, %" PRIu64 " degraded (exempt), digest %016" PRIx64
              ", %.1f s\n",
              what, checked, mismatched, skipped_degraded, digest.digest(),
              std::chrono::duration<double>(Clock::now() - started).count());
  if (mismatched > 0) {
    std::fprintf(stderr, "%s: %" PRIu64 " team(s) differ from the reference\n",
                 what, mismatched);
  }
  return mismatched == 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSinceStart() { return NowNs() / 1e9; }

void PrintProvenance(const Options& opt, const Fixture& fx,
                     const std::string& extra_json) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"smoke\": %d, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"commit\": \"%s\", \"source_digest\": \"%s\", \"fixture\": "
      "{\"dataset\": \"%s\", \"n\": %u, \"edges\": %" PRIu64
      ", \"skills\": %u, \"relation\": \"%s\"}%s%s}\n",
      opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
      opt.smoke ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, opt.commit.c_str(), opt.source_digest.c_str(),
      fx.ds.name.c_str(), fx.ds.graph.num_nodes(),
      static_cast<uint64_t>(fx.ds.graph.num_edges()), fx.ds.skills.num_skills(),
      CompatKindName(kRelation), extra_json.empty() ? "" : ", ",
      extra_json.c_str());
}

bool ReportTrace(const Options& opt, const Tracer& tracer, int64_t window_start,
                 int64_t window_end, Report* out) {
  const std::string base = opt.work_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  const std::string trace_path = base + ".trace.json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return false;
  }
  double uncovered = 0;
  const std::vector<StageTime> stages =
      SelfTimes(tracer.spans(), window_start, window_end, &uncovered);
  const double wall = (window_end - window_start) / 1e9;

  std::map<std::string, double> by_layer = {
      {"bench", 0}, {"kernel", 0}, {"view", 0}, {"greedy", 0},
      {"serve", 0}, {"dist", 0}};
  std::string table = "stage                      self_s     busy_s    spans\n";
  char line[160];
  double self_sum = 0;
  for (const StageTime& s : stages) {
    std::snprintf(line, sizeof(line), "%-24s %9.4f %10.4f %8" PRIu64 "\n",
                  s.stage.c_str(), s.self_s, s.busy_s, s.spans);
    table += line;
    self_sum += s.self_s;
    by_layer[s.stage.substr(0, s.stage.find('.'))] += s.self_s;
  }
  const double uncovered_frac = wall > 0 ? uncovered / wall : 1;
  std::snprintf(line, sizeof(line),
                "%-24s %9.4f\n%-24s %9.4f  (self sum + untraced = wall; "
                "tolerance %.0f%% untraced)\n",
                "(untraced gaps)", uncovered, "traced wall clock", wall,
                kSelfTimeTolerance * 100);
  table += line;
  std::printf("selftime\n%s", table.c_str());
  const std::string table_path = base + ".selftime.txt";
  if (std::FILE* f = std::fopen(table_path.c_str(), "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::printf("trace      %zu spans -> %s\n", tracer.spans().size(),
              trace_path.c_str());

  for (const auto& [layer, s] : by_layer) {
    out->Set("selftime." + layer + "_s", s, "s");
  }
  out->Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  out->Set("trace.uncovered_frac", uncovered_frac, "frac");
  const bool ok =
      std::fabs(self_sum + uncovered - wall) <= 1e-6 * wall + 1e-6 &&
                  uncovered_frac <= kSelfTimeTolerance;
  if (!ok) {
    std::fprintf(stderr,
                 "self times cover %.4f s of a %.4f s traced window "
                 "(untraced %.1f%% > %.0f%%)\n",
                 self_sum, wall, uncovered_frac * 100,
                 kSelfTimeTolerance * 100);
  }
  return ok;
}

bool CheckAccounting(uint64_t attempted, uint64_t completed, uint64_t dropped,
                     uint64_t rejected, uint64_t shed, uint64_t unavailable,
                     uint64_t errored) {
  const uint64_t sum =
      completed + dropped + rejected + shed + unavailable + errored;
  std::printf("accounting attempted %" PRIu64 " = completed %" PRIu64
              " + dropped %" PRIu64 " + rejected %" PRIu64 " + shed %" PRIu64
              " + unavailable %" PRIu64 " + errored %" PRIu64 " -> %s\n",
              attempted, completed, dropped, rejected, shed, unavailable,
              errored, sum == attempted ? "ok" : "BROKEN");
  if (sum != attempted) {
    std::fprintf(stderr, "accounting identity broken: %" PRIu64
                         " attempted, %" PRIu64 " accounted for\n",
                 attempted, sum);
  }
  return sum == attempted;
}

void SetCacheMetrics(const RowCache::StatsSnapshot& d, double resident_mb,
                     Report* out) {
  out->Set("cache.lookups", static_cast<double>(d.lookups()), "count");
  out->Set("cache.hit_rate", d.HitRate(), "frac");
  out->Set("cache.evictions", static_cast<double>(d.evictions), "count");
  out->Set("cache.decodes", static_cast<double>(d.decodes), "count");
  out->Set("cache.decode_ms", d.decode_ns / 1e6, "ms");
  out->Set("cache.spill_reads", static_cast<double>(d.spill_reads), "count");
  out->Set("cache.spill_writes", static_cast<double>(d.spill_writes), "count");
  out->Set("cache.resident_mb", resident_mb, "MB");
}

}  // namespace perfbench
