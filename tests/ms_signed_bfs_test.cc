// Bit-parallel multi-source signed BFS (ms_signed_bfs.h) vs the scalar row
// kernels: exhaustive equivalence on every labelled signed graph with at
// most 5 nodes, randomized equivalence on Erdős–Rényi and generator-family
// graphs across batch sizes (1, 63, 64, and >64 through the oracle's block
// split), ragged tails (n < 64), duplicate sources, distance equality, the
// per-lane widening of the distance store on long paths, the SPM count
// planes' overflow recomputation on a path-doubling ladder, and the
// saturation-flag semantics of batched rows.

#include "src/compat/ms_signed_bfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/compat/row_kernels.h"
#include "src/gen/generators.h"
#include "src/graph/bfs.h"
#include "src/graph/graph_builder.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

constexpr CompatKind kBatchKinds[] = {CompatKind::kSPA, CompatKind::kSPO,
                                      CompatKind::kSPM, CompatKind::kDPE,
                                      CompatKind::kNNE};

// Block rows equal scalar rows in comp, dist and the dist store's width
// (one representation per row, whichever kernel computed it); SPM rows (the
// engine's only counting relation) also in the saturated flag.
void ExpectRowsEqual(const CompatRow& batched, const CompatRow& scalar,
                     CompatKind kind, NodeId q) {
  EXPECT_EQ(batched.comp, scalar.comp)
      << CompatKindName(kind) << " comp mismatch, source " << q;
  EXPECT_EQ(batched.dist, scalar.dist)
      << CompatKindName(kind) << " dist mismatch, source " << q;
  EXPECT_EQ(batched.dist.width(), scalar.dist.width())
      << CompatKindName(kind) << " dist width mismatch, source " << q;
  if (kind == CompatKind::kSPM) {
    EXPECT_EQ(batched.saturated, scalar.saturated)
        << "SPM saturated mismatch, source " << q;
  }
}

// Compares one block against per-source scalar kernel rows.
void CheckBlock(const SignedGraph& g, CompatKind kind,
                const std::vector<NodeId>& sources,
                MsBfsScratch* scratch = nullptr) {
  RowKernelParams params;
  auto rows = ComputeCompatRowBlock(g, kind, sources, scratch);
  ASSERT_EQ(rows.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    CompatRow scalar = ComputeCompatRow(g, kind, params, sources[i]);
    ExpectRowsEqual(rows[i], scalar, kind, sources[i]);
  }
}

// A layered complete-bipartite ladder: a root, then `layers` layers of
// `width` nodes with every node joined to every node of the next layer.
// The root's shortest-path count to a node of layer k (from 0) is
// width^k. Signs follow a fixed pattern so both N+ and N- grow.
SignedGraph Ladder(uint32_t layers, uint32_t width) {
  SignedGraphBuilder b(1 + layers * width);
  auto node = [width](uint32_t layer, uint32_t j) {
    return static_cast<NodeId>(1 + layer * width + j);
  };
  for (uint32_t j = 0; j < width; ++j) {
    b.AddEdge(0, node(0, j), Sign::kPositive).CheckOK();
  }
  for (uint32_t layer = 0; layer + 1 < layers; ++layer) {
    for (uint32_t a = 0; a < width; ++a) {
      for (uint32_t c = 0; c < width; ++c) {
        const Sign sign =
            (layer + a + 2 * c) % 3 == 0 ? Sign::kNegative : Sign::kPositive;
        b.AddEdge(node(layer, a), node(layer + 1, c), sign).CheckOK();
      }
    }
  }
  return std::move(b.Build()).ValueOrDie();
}

std::vector<NodeId> SampleSources(const SignedGraph& g, size_t count,
                                  Rng* rng) {
  std::vector<NodeId> sources;
  sources.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<NodeId>(rng->NextBounded(g.num_nodes())));
  }
  return sources;
}

TEST(MsSignedBfsTest, SupportsShortestPathAndDirectEdgeKinds) {
  // Every relation decided by shortest paths (existence or counts) or by
  // direct edges runs in blocks; the balanced-path searches do not.
  EXPECT_TRUE(MsBfsSupportsKind(CompatKind::kSPA));
  EXPECT_TRUE(MsBfsSupportsKind(CompatKind::kSPO));
  EXPECT_TRUE(MsBfsSupportsKind(CompatKind::kSPM));
  EXPECT_TRUE(MsBfsSupportsKind(CompatKind::kDPE));
  EXPECT_TRUE(MsBfsSupportsKind(CompatKind::kNNE));
  EXPECT_FALSE(MsBfsSupportsKind(CompatKind::kSBPH));
  EXPECT_FALSE(MsBfsSupportsKind(CompatKind::kSBP));
}

TEST(MsSignedBfsTest, MatchesScalarOnEverySignedGraphUpToFiveNodes) {
  // Each of the n(n-1)/2 pairs is absent, positive or negative: 3^10
  // graphs at n = 5, each run from all sources in one block plus a
  // duplicate of node 0. SPM, the counting relation, runs on all of them;
  // the other relations share its traversal and run up to n = 4.
  MsBfsScratch scratch;
  for (uint32_t n = 1; n <= 5; ++n) {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
    }
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < n; ++u) sources.push_back(u);
    sources.push_back(0);
    uint64_t graphs = 1;
    for (size_t i = 0; i < pairs.size(); ++i) graphs *= 3;
    for (uint64_t code = 0; code < graphs; ++code) {
      SignedGraphBuilder b(n);
      uint64_t rest = code;
      for (const auto& [u, v] : pairs) {
        const uint64_t label = rest % 3;
        rest /= 3;
        if (label != 0) {
          b.AddEdge(u, v, label == 1 ? Sign::kPositive : Sign::kNegative)
              .CheckOK();
        }
      }
      SignedGraph g = std::move(b.Build()).ValueOrDie();
      for (CompatKind kind : kBatchKinds) {
        if (n == 5 && kind != CompatKind::kSPM) continue;
        CheckBlock(g, kind, sources, &scratch);
        if (::testing::Test::HasFailure()) {
          FAIL() << "n=" << n << " graph code " << code << " kind "
                 << CompatKindName(kind);
        }
      }
    }
  }
  EXPECT_EQ(scratch.overflow_lanes(), 0u);
}

TEST(MsSignedBfsTest, MatchesScalarOnErdosRenyiAcrossBatchSizes) {
  Rng graph_rng(11);
  SignedGraph g = RandomConnectedGnm(180, 540, 0.3, &graph_rng);
  Rng rng(12);
  for (size_t batch : {size_t{1}, size_t{2}, size_t{63}, size_t{64}}) {
    for (CompatKind kind : kBatchKinds) {
      CheckBlock(g, kind, SampleSources(g, batch, &rng));
    }
  }
}

TEST(MsSignedBfsTest, MatchesScalarOnGeneratorFamilies) {
  Rng rng(21);
  std::vector<SignedGraph> graphs;
  graphs.push_back(RandomPreferentialAttachment(150, 600, 0.25, &rng));
  graphs.push_back(PlantedPartitionSigned(120, 360, 0.1, &rng));
  graphs.push_back(SmallWorldSigned(140, 6, 0.2, 0.35, &rng));
  for (const SignedGraph& g : graphs) {
    for (CompatKind kind : kBatchKinds) {
      CheckBlock(g, kind, SampleSources(g, 64, &rng));
    }
  }
}

TEST(MsSignedBfsTest, SpmMatchesScalarOnGeneratorFamiliesAcrossTails) {
  // One scratch across every block: stale count planes from earlier
  // blocks (and larger graphs) must never leak into later rows.
  Rng rng(23);
  std::vector<SignedGraph> graphs;
  graphs.push_back(RandomPreferentialAttachment(300, 1500, 0.25, &rng));
  graphs.push_back(PlantedPartitionSigned(160, 640, 0.1, &rng));
  graphs.push_back(SmallWorldSigned(200, 8, 0.2, 0.35, &rng));
  graphs.push_back(RandomBalancedGraph(120, 480, &rng));
  MsBfsScratch scratch;
  for (const SignedGraph& g : graphs) {
    for (size_t lanes : {size_t{1}, size_t{63}, size_t{64}}) {
      CheckBlock(g, CompatKind::kSPM, SampleSources(g, lanes, &rng), &scratch);
    }
    // Duplicates: one source in many lanes next to distinct ones.
    std::vector<NodeId> dup = SampleSources(g, 40, &rng);
    for (size_t i = 0; i < 24; ++i) dup.push_back(dup[i % 3]);
    CheckBlock(g, CompatKind::kSPM, dup, &scratch);
    // 65 lanes: two blocks through the oracle's split.
    auto oracle = MakeOracle(g, CompatKind::kSPM);
    std::vector<NodeId> sources = SampleSources(g, 65, &rng);
    auto rows = oracle->GetRows(sources, /*threads=*/1);
    RowKernelParams params;
    for (size_t i = 0; i < sources.size(); ++i) {
      ExpectRowsEqual(*rows[i],
                      ComputeCompatRow(g, CompatKind::kSPM, params, sources[i]),
                      CompatKind::kSPM, sources[i]);
    }
    EXPECT_EQ(oracle->block_rows_computed(), oracle->rows_computed());
  }
}

TEST(MsSignedBfsTest, RaggedTailSmallerThanWord) {
  // n < 64: every node is a source, the lane word is only partly used.
  Rng rng(31);
  SignedGraph g = RandomConnectedGnm(23, 60, 0.4, &rng);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  for (CompatKind kind : kBatchKinds) CheckBlock(g, kind, all);
}

TEST(MsSignedBfsTest, DuplicateSourcesShareLanesCorrectly) {
  Rng rng(37);
  SignedGraph g = RandomConnectedGnm(60, 150, 0.3, &rng);
  std::vector<NodeId> sources = {7, 7, 0, 59, 7, 0};
  for (CompatKind kind : kBatchKinds) CheckBlock(g, kind, sources);
}

TEST(MsSignedBfsTest, DisconnectedComponentsStayUnreachable) {
  // Two components: sources in one must not reach the other.
  SignedGraphBuilder b(8);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(1, 2, Sign::kNegative).CheckOK();
  b.AddEdge(4, 5, Sign::kPositive).CheckOK();
  b.AddEdge(5, 6, Sign::kPositive).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  std::vector<NodeId> sources = {0, 4, 3};
  for (CompatKind kind : kBatchKinds) CheckBlock(g, kind, sources);
  auto rows = ComputeCompatRowBlock(g, CompatKind::kSPA, sources);
  EXPECT_EQ(rows[0].dist[5], kUnreachable);
  EXPECT_EQ(rows[1].dist[0], kUnreachable);
  EXPECT_EQ(rows[2].dist[0], kUnreachable);  // isolated source
  EXPECT_EQ(rows[2].dist[3], 0u);
}

TEST(MsSignedBfsTest, DistancesEqualPlainBfsLevels) {
  // SPA/SPO distances are plain hop distances: signs never change levels.
  Rng rng(41);
  SignedGraph g = RandomPreferentialAttachment(200, 900, 0.3, &rng);
  std::vector<NodeId> sources = SampleSources(g, 64, &rng);
  auto rows = ComputeCompatRowBlock(g, CompatKind::kSPO, sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(rows[i].dist.ToVector(), BfsDistances(g, sources[i]))
        << sources[i];
  }
}

// A path 0 - 1 - ... - (n-1) whose edges alternate in sign; the farthest
// node from source s is max(s, n - 1 - s) hops away.
SignedGraph AlternatingPath(uint32_t n) {
  SignedGraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    b.AddEdge(u, u + 1, u % 2 == 0 ? Sign::kPositive : Sign::kNegative)
        .CheckOK();
  }
  return std::move(b.Build()).ValueOrDie();
}

TEST(MsSignedBfsTest, LanesWidenTheirOwnRowsPastLevel254) {
  // On a 400-node path, sources 145 and 200 never pass level 254 while 144,
  // 100, 0 and 399 do: in one block, each row keeps the width of its own
  // values and equals the scalar row (CheckBlock compares widths too).
  SignedGraph g = AlternatingPath(400);
  const std::vector<NodeId> sources = {145, 0, 200, 144, 399, 100};
  for (CompatKind kind : kBatchKinds) CheckBlock(g, kind, sources);
  auto rows = ComputeCompatRowBlock(g, CompatKind::kSPM, sources);
  const uint32_t widths[] = {1, 2, 1, 2, 2, 2};
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(rows[i].dist.width(), widths[i]) << sources[i];
    EXPECT_EQ(rows[i].dist.MaxFinite(),
              std::max(sources[i], 399 - sources[i]));
  }
}

TEST(MsSignedBfsTest, LanesWidenTheirOwnRowsPastLevel65534) {
  // 65,540 nodes: from source 5 the farthest node is 65,534 hops away (2
  // bytes), from 4 it is 65,535 (4 bytes); 32,770 stays at 2 bytes.
  constexpr uint32_t kNodes = 65540;
  SignedGraph g = AlternatingPath(kNodes);
  const std::vector<NodeId> sources = {5, 4, 32770};
  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kSPA}) {
    CheckBlock(g, kind, sources);
  }
  auto rows = ComputeCompatRowBlock(g, CompatKind::kSPM, sources);
  EXPECT_EQ(rows[0].dist.width(), 2u);
  EXPECT_EQ(rows[1].dist.width(), 4u);
  EXPECT_EQ(rows[2].dist.width(), 2u);
  EXPECT_EQ(rows[1].dist[kNodes - 1], kNodes - 5);
}

TEST(MsSignedBfsTest, SignFlipPropagation) {
  // A 4-cycle with one negative edge: both shortest paths 0->2 exist, one
  // positive and one negative, so SPA rejects and SPO accepts.
  SignedGraphBuilder b(4);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(1, 2, Sign::kPositive).CheckOK();
  b.AddEdge(0, 3, Sign::kPositive).CheckOK();
  b.AddEdge(3, 2, Sign::kNegative).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  std::vector<NodeId> sources = {0};
  auto spa = ComputeCompatRowBlock(g, CompatKind::kSPA, sources);
  auto spo = ComputeCompatRowBlock(g, CompatKind::kSPO, sources);
  EXPECT_EQ(spa[0].comp[2], 0);
  EXPECT_EQ(spo[0].comp[2], 1);
  EXPECT_EQ(spa[0].dist[2], 2u);
  for (CompatKind kind : kBatchKinds) CheckBlock(g, kind, sources);
}

TEST(MsSignedBfsTest, BatchedSaturationFlagMatchesScalar) {
  // On an ordinary graph no count comes near the planes' limit: no lane
  // is recomputed, and no row — existence or SPM — is flagged.
  Rng rng(43);
  SignedGraph g = RandomConnectedGnm(100, 400, 0.3, &rng);
  std::vector<NodeId> sources = SampleSources(g, 64, &rng);
  MsBfsScratch scratch;
  for (CompatKind kind : kBatchKinds) {
    auto rows = ComputeCompatRowBlock(g, kind, sources, &scratch);
    for (const CompatRow& row : rows) EXPECT_FALSE(row.saturated);
  }
  EXPECT_EQ(scratch.overflow_lanes(), 0u);
  // Past 2^64 shortest paths the scalar SPM row saturates, and so does
  // the block row (its lane overflowed the planes and was recomputed).
  // The existence relations keep no counts: their block rows stay
  // unflagged while comp and dist still match.
  SignedGraph ladder = Ladder(/*layers=*/70, /*width=*/2);
  const std::vector<NodeId> root = {0};
  auto spm = ComputeCompatRowBlock(ladder, CompatKind::kSPM, root, &scratch);
  EXPECT_TRUE(spm[0].saturated);
  EXPECT_TRUE(ComputeSpmRow(ladder, RowKernelParams{}, 0).saturated);
  for (CompatKind kind : {CompatKind::kSPA, CompatKind::kSPO}) {
    auto rows = ComputeCompatRowBlock(ladder, kind, root);
    EXPECT_FALSE(rows[0].saturated);
    CheckBlock(ladder, kind, root);
  }
}

TEST(MsSignedBfsTest, SpmLanesPastTheCountPlanesAreRecomputedExactly) {
  // 20 layers of width 2: the root's counts reach 2^19, beyond the 16
  // planes, so its lane (and those of nearby sources) overflow and are
  // recomputed, while the row stays exact and unsaturated.
  SignedGraph g = Ladder(/*layers=*/20, /*width=*/2);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  MsBfsScratch scratch;
  CheckBlock(g, CompatKind::kSPM, all, &scratch);
  EXPECT_GT(scratch.overflow_lanes(), 0u);
  EXPECT_LT(scratch.overflow_lanes(), all.size());
  // Past 2^64: 70 layers. Block and scalar rows agree, saturated included.
  SignedGraph deep = Ladder(/*layers=*/70, /*width=*/2);
  const std::vector<NodeId> ends = {0, 1, 2, deep.num_nodes() - 1};
  const uint64_t before = scratch.overflow_lanes();
  CheckBlock(deep, CompatKind::kSPM, ends, &scratch);
  EXPECT_EQ(scratch.overflow_lanes(), before + ends.size());
}

// ---------------------------------------------------------------------------
// Oracle integration: GetRows must group misses into blocks (including the
// ragged tail beyond 64) and produce rows identical to the scalar path.
// ---------------------------------------------------------------------------

TEST(MsSignedBfsOracleTest, GetRowsBatchesMatchScalarAt65Sources) {
  Rng rng(51);
  SignedGraph g = RandomConnectedGnm(130, 420, 0.3, &rng);
  RowKernelParams params;
  for (CompatKind kind : {CompatKind::kSPA, CompatKind::kSPO}) {
    auto oracle = MakeOracle(g, kind);
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < 65; ++u) sources.push_back(u);
    auto rows = oracle->GetRows(sources, /*threads=*/1);
    ASSERT_EQ(rows.size(), sources.size());
    EXPECT_EQ(oracle->rows_computed(), 65u);
    for (size_t i = 0; i < sources.size(); ++i) {
      ASSERT_NE(rows[i], nullptr);
      CompatRow scalar = ComputeCompatRow(g, kind, params, sources[i]);
      ExpectRowsEqual(*rows[i], scalar, kind, sources[i]);
    }
  }
}

TEST(MsSignedBfsOracleTest, GetRowsBatchSizesOneThrough65) {
  Rng rng(53);
  SignedGraph g = RandomConnectedGnm(90, 300, 0.35, &rng);
  RowKernelParams params;
  for (size_t batch : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
    auto oracle = MakeOracle(g, CompatKind::kSPA);
    Rng pick(100 + batch);
    std::vector<NodeId> sources = SampleSources(g, batch, &pick);
    auto rows = oracle->GetRows(sources, /*threads=*/2);
    for (size_t i = 0; i < sources.size(); ++i) {
      ASSERT_NE(rows[i], nullptr) << batch;
      CompatRow scalar =
          ComputeCompatRow(g, CompatKind::kSPA, params, sources[i]);
      ExpectRowsEqual(*rows[i], scalar, CompatKind::kSPA, sources[i]);
    }
  }
}

TEST(MsSignedBfsOracleTest, SpmGetRowsRunsInBlocksAndMatchesScalar) {
  // SPM's majority counts run in bit-parallel blocks; every row — comp,
  // dist and saturated — matches the scalar kernel.
  Rng rng(59);
  SignedGraph g = RandomConnectedGnm(70, 220, 0.4, &rng);
  RowKernelParams params;
  auto oracle = MakeOracle(g, CompatKind::kSPM);
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < g.num_nodes(); ++u) sources.push_back(u);
  auto rows = oracle->GetRows(sources, /*threads=*/2);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    CompatRow scalar = ComputeCompatRow(g, CompatKind::kSPM, params, u);
    ExpectRowsEqual(*rows[u], scalar, CompatKind::kSPM, u);
  }
  EXPECT_EQ(oracle->rows_computed(), g.num_nodes());
  EXPECT_EQ(oracle->block_rows_computed(), g.num_nodes());
  // A lone miss and custom kernels stay scalar.
  auto lone = MakeOracle(g, CompatKind::kSPM);
  lone->GetRows(std::vector<NodeId>{3}, /*threads=*/2);
  EXPECT_EQ(lone->rows_computed(), 1u);
  EXPECT_EQ(lone->block_rows_computed(), 0u);
  RowKernelParams threshold;
  threshold.threshold_theta = 0.5;
  CompatibilityOracle custom(g, CompatKind::kSPM, &ComputeThresholdRow,
                             threshold);
  custom.GetRows(sources, /*threads=*/2);
  EXPECT_EQ(custom.rows_computed(), g.num_nodes());
  EXPECT_EQ(custom.block_rows_computed(), 0u);
}

TEST(MsSignedBfsOracleTest, GetRowsGivesEveryWorkerABlock) {
  // 128 distinct misses on 4 threads split into 4 blocks of 32 (not 2 of
  // 64); cached sources and duplicates are not recomputed.
  Rng rng(61);
  SignedGraph g = RandomPreferentialAttachment(400, 2000, 0.3, &rng);
  RowKernelParams params;
  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kSPA}) {
    auto oracle = MakeOracle(g, kind);
    oracle->GetRow(0);
    oracle->GetRow(1);
    std::vector<NodeId> sources = {0, 1};
    for (NodeId u = 2; u < 130; ++u) sources.push_back(u);
    for (NodeId u = 2; u < 12; ++u) sources.push_back(u);
    const uint64_t before = oracle->rows_computed();
    auto rows = oracle->GetRows(sources, /*threads=*/4);
    EXPECT_EQ(oracle->rows_computed() - before, 128u);
    EXPECT_EQ(oracle->block_rows_computed(), 128u);
    for (size_t i = 0; i < sources.size(); ++i) {
      ASSERT_NE(rows[i], nullptr);
      ExpectRowsEqual(*rows[i], ComputeCompatRow(g, kind, params, sources[i]),
                      kind, sources[i]);
    }
  }
}

TEST(MsSignedBfsOracleTest, GetRowsCountsRecomputedOverflowLanes) {
  SignedGraph g = Ladder(/*layers=*/20, /*width=*/2);
  auto oracle = MakeOracle(g, CompatKind::kSPM);
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  auto rows = oracle->GetRows(all, /*threads=*/3);
  EXPECT_GT(oracle->overflow_lanes_recomputed(), 0u);
  EXPECT_EQ(oracle->block_rows_computed(), all.size());
  RowKernelParams params;
  for (NodeId u : all) {
    ExpectRowsEqual(*rows[u], ComputeCompatRow(g, CompatKind::kSPM, params, u),
                    CompatKind::kSPM, u);
  }
}

}  // namespace
}  // namespace tfsn
