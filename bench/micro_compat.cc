// Microbenchmarks for the compatibility machinery.
//
// Two modes:
//
//  1. Batch-vs-scalar row construction (always available):
//       micro_compat --quick [--json=BENCH_micro_compat.json]
//       micro_compat --batch [--sources=N] [--json=...]
//     measures the bit-parallel 64-source engine (ms_signed_bfs.h) against
//     the scalar per-row kernels for SPA/SPO/SPM on preferential-attachment
//     graphs, printing rows/sec and the batch speedup, and optionally
//     writing a BENCH_*.json trajectory file (format: README, "Bench JSON
//     output"). --quick trims the sweep for CI smoke runs and skips the
//     Google-Benchmark suite.
//
//  2. The Google-Benchmark suite (when the library is available): signed
//     BFS (Algorithm 1), SBPH label-setting, exact SBP queries, plain BFS
//     baseline, oracle row caching, and the batched block engine. Run with
//     --benchmark_filter=... to narrow.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/compat/compatibility.h"
#include "src/compat/ms_signed_bfs.h"
#include "src/compat/row_kernels.h"
#include "src/compat/sbp.h"
#include "src/compat/signed_bfs.h"
#include "src/gen/generators.h"
#include "src/graph/bfs.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

#ifdef TFSN_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace tfsn {
namespace {

// Shared graphs, built once.
const SignedGraph& GraphOfSize(int64_t n) {
  static auto* cache = new std::map<int64_t, SignedGraph>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(42 + static_cast<uint64_t>(n));
    it = cache->emplace(n, RandomPreferentialAttachment(
                               static_cast<uint32_t>(n),
                               static_cast<uint64_t>(n) * 7, 0.2, &rng))
             .first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Batch vs scalar row construction (the PR's headline measurement)
// ---------------------------------------------------------------------------

struct BatchMeasurement {
  uint32_t n = 0;
  uint64_t edges = 0;
  CompatKind kind = CompatKind::kSPA;
  uint32_t sources = 0;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  uint64_t overflow_lanes = 0;  // SPM lanes recomputed scalar
  double row_bytes = 0.0;       // mean CompatRow::ByteSize() of block rows

  double scalar_rows_per_sec() const {
    return scalar_seconds > 0 ? sources / scalar_seconds : 0.0;
  }
  double batch_rows_per_sec() const {
    return batch_seconds > 0 ? sources / batch_seconds : 0.0;
  }
  double speedup() const {
    return batch_seconds > 0 ? scalar_seconds / batch_seconds : 0.0;
  }
};

BatchMeasurement MeasureBatchVsScalar(const SignedGraph& g, CompatKind kind,
                                      uint32_t num_sources) {
  BatchMeasurement m;
  m.n = g.num_nodes();
  m.edges = g.num_edges();
  m.kind = kind;

  Rng rng(19 + static_cast<uint64_t>(kind));
  std::vector<NodeId> sources =
      rng.SampleWithoutReplacement(g.num_nodes(),
                                   std::min(num_sources, g.num_nodes()));
  m.sources = static_cast<uint32_t>(sources.size());

  const RowKernelParams params;
  Timer scalar_timer;
  for (NodeId q : sources) {
    CompatRow row = ComputeCompatRow(g, kind, params, q);
    // Keep the optimizer honest without Google Benchmark helpers.
    if (row.comp.empty()) std::abort();
  }
  m.scalar_seconds = scalar_timer.Seconds();

  auto block_of = [&](size_t off) {
    return std::span<const NodeId>(
        sources.data() + off, std::min(kMsBfsBatchSize, sources.size() - off));
  };
  MsBfsScratch scratch;
  Timer batch_timer;
  for (size_t off = 0; off < sources.size(); off += kMsBfsBatchSize) {
    auto rows = ComputeCompatRowBlock(g, kind, block_of(off), &scratch);
    if (rows.size() != block_of(off).size()) std::abort();
  }
  m.batch_seconds = batch_timer.Seconds();
  m.overflow_lanes = scratch.overflow_lanes();

  // The speedup counts only if the rows are the scalar rows: an untimed
  // second pass compares every block row with its scalar row, and sums
  // the bytes a cache would charge for the block rows.
  size_t row_bytes = 0;
  for (size_t off = 0; off < sources.size(); off += kMsBfsBatchSize) {
    auto rows = ComputeCompatRowBlock(g, kind, block_of(off), &scratch);
    for (size_t k = 0; k < rows.size(); ++k) {
      row_bytes += rows[k].ByteSize();
      const CompatRow scalar =
          ComputeCompatRow(g, kind, params, sources[off + k]);
      if (rows[k].comp != scalar.comp || rows[k].dist != scalar.dist ||
          (kind == CompatKind::kSPM && rows[k].saturated != scalar.saturated)) {
        std::fprintf(stderr, "%s block row of source %u differs from scalar\n",
                     CompatKindName(kind), sources[off + k]);
        std::abort();
      }
    }
  }
  m.row_bytes = static_cast<double>(row_bytes) / m.sources;
  return m;
}

// Runs the batch-vs-scalar sweep, prints a table, and appends one JSON
// object per measurement. Single-threaded by construction: the speedup is
// pure bit-parallelism, not thread parallelism. Aborts when a block row
// differs from its scalar row.
void RunBatchSweep(bool quick, uint32_t num_sources, bench::JsonArrayWriter* json) {
  std::vector<int64_t> sizes = quick ? std::vector<int64_t>{1000, 10000}
                                     : std::vector<int64_t>{1000, 10000, 30000};
  std::printf(
      "batch vs scalar row construction (single thread, %u sources)\n"
      "%8s %9s %5s %14s %14s %9s %10s\n",
      num_sources, "n", "edges", "kind", "scalar rows/s", "batch rows/s",
      "speedup", "row bytes");
  for (int64_t n : sizes) {
    const SignedGraph& g = GraphOfSize(n);
    for (CompatKind kind :
         {CompatKind::kSPA, CompatKind::kSPO, CompatKind::kSPM}) {
      BatchMeasurement m = MeasureBatchVsScalar(g, kind, num_sources);
      std::printf("%8u %9llu %5s %14.1f %14.1f %8.2fx %10.0f\n", m.n,
                  static_cast<unsigned long long>(m.edges),
                  CompatKindName(m.kind), m.scalar_rows_per_sec(),
                  m.batch_rows_per_sec(), m.speedup(), m.row_bytes);
      if (json != nullptr) {
        json->BeginObject();
        json->Field("bench", "micro_compat");
        json->Field("experiment", "batch_vs_scalar");
        json->Field("n", m.n);
        json->Field("edges", m.edges);
        json->Field("kind", CompatKindName(m.kind));
        json->Field("sources", m.sources);
        json->Field("threads", 1);
        json->Field("scalar_seconds", m.scalar_seconds);
        json->Field("batch_seconds", m.batch_seconds);
        json->Field("scalar_rows_per_sec", m.scalar_rows_per_sec());
        json->Field("batch_rows_per_sec", m.batch_rows_per_sec());
        json->Field("speedup", m.speedup());
        json->Field("row_bytes", m.row_bytes);
        json->Field("overflow_lanes", m.overflow_lanes);
        json->Field("identical", true);
        bench::HardwareFields(json);
        json->EndObject();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Google-Benchmark suite
// ---------------------------------------------------------------------------

#ifdef TFSN_HAVE_GBENCH

void BM_PlainBfs(benchmark::State& state) {
  const SignedGraph& g = GraphOfSize(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    NodeId q = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(BfsDistances(g, q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_PlainBfs)->Arg(1000)->Arg(10000)->Arg(30000);

void BM_SignedShortestPathCount(benchmark::State& state) {
  const SignedGraph& g = GraphOfSize(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    NodeId q = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(SignedShortestPathCount(g, q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_SignedShortestPathCount)->Arg(1000)->Arg(10000)->Arg(30000);

void BM_BatchedRowBlock64(benchmark::State& state) {
  // One full 64-source bit-parallel block; items = rows produced.
  const SignedGraph& g = GraphOfSize(state.range(0));
  Rng rng(6);
  std::vector<NodeId> sources = rng.SampleWithoutReplacement(g.num_nodes(), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeCompatRowBlock(g, CompatKind::kSPA, sources));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchedRowBlock64)->Arg(1000)->Arg(10000)->Arg(30000);

void BM_SbphFromSource(benchmark::State& state) {
  const SignedGraph& g = GraphOfSize(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    NodeId q = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(SbphFromSource(g, q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_SbphFromSource)->Arg(1000)->Arg(10000)->Arg(30000);

void BM_SbpExactPair(benchmark::State& state) {
  // Slashdot-scale graph: the regime the paper computes SBP on.
  Rng graph_rng(7);
  SignedGraph g = RandomConnectedGnm(214, 304, 0.29, &graph_rng);
  SbpExactParams params;
  params.max_depth = static_cast<uint32_t>(state.range(0));
  SbpExactSearch search(g, params);
  Rng rng(4);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (u == v) v = (v + 1) % g.num_nodes();
    benchmark::DoNotOptimize(search.ShortestBalancedPath(u, v, Sign::kPositive));
  }
}
BENCHMARK(BM_SbpExactPair)->Arg(8)->Arg(12)->Arg(16);

void BM_OracleRowCached(benchmark::State& state) {
  const SignedGraph& g = GraphOfSize(10000);
  auto kind = static_cast<CompatKind>(state.range(0));
  auto oracle = MakeOracle(g, kind);
  oracle->GetRow(0);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->Compatible(0, 123));
  }
}
BENCHMARK(BM_OracleRowCached)
    ->Arg(static_cast<int>(CompatKind::kSPM))
    ->Arg(static_cast<int>(CompatKind::kSBPH))
    ->Arg(static_cast<int>(CompatKind::kNNE));

void BM_OracleRowCold(benchmark::State& state) {
  const SignedGraph& g = GraphOfSize(10000);
  auto kind = static_cast<CompatKind>(state.range(0));
  OracleParams params;
  params.max_cached_rows = 1;  // force misses
  auto oracle = MakeOracle(g, kind, params);
  Rng rng(5);
  NodeId q = 0;
  for (auto _ : state) {
    q = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    benchmark::DoNotOptimize(oracle->GetRow(q));
  }
}
BENCHMARK(BM_OracleRowCold)
    ->Arg(static_cast<int>(CompatKind::kSPA))
    ->Arg(static_cast<int>(CompatKind::kSPM))
    ->Arg(static_cast<int>(CompatKind::kSBPH))
    ->Arg(static_cast<int>(CompatKind::kNNE));

#endif  // TFSN_HAVE_GBENCH

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  const bool quick = flags.GetBool("quick");
  const std::string json_path = flags.GetString("json");
  const bool batch = flags.GetBool("batch") || quick || !json_path.empty();

  if (batch) {
    tfsn::bench::JsonArrayWriter json;
    tfsn::RunBatchSweep(
        quick, static_cast<uint32_t>(flags.GetInt("sources", 128)),
        json_path.empty() ? nullptr : &json);
    if (!json_path.empty() && !json.WriteFile(json_path)) return 1;
    if (quick) return 0;
  }

#ifdef TFSN_HAVE_GBENCH
  // Strip the custom flags; Google Benchmark rejects unknown --flags.
  auto is_custom = [](const char* a) {
    for (const char* name : {"--json", "--quick", "--batch", "--sources"}) {
      const size_t len = std::strlen(name);
      if (std::strncmp(a, name, len) == 0 && (a[len] == '\0' || a[len] == '=')) {
        return true;
      }
    }
    return false;
  };
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (is_custom(argv[i])) {
      // Flags also accepts the "--name value" form: drop the value token
      // along with the flag.
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        ++i;
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  if (!batch) {
    // Without Google Benchmark the batch sweep is the whole suite.
    tfsn::RunBatchSweep(quick,
                        static_cast<uint32_t>(flags.GetInt("sources", 128)),
                        nullptr);
  }
#endif
  return 0;
}
