// Round-trip tests for the compressed row codec (row_codec.h): every
// relation plus the threshold kernel on random graphs, ragged hand-built
// rows, kUnreachable runs on fragmented graphs, the saturated flag, the
// raw fallbacks, golden blobs that pin the layout byte for byte, the
// measured compression ratio, and rejection of malformed blobs.

#include "src/compat/row_codec.h"

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "src/compat/row_kernels.h"
#include "src/compat/threshold.h"
#include "src/gen/generators.h"
#include "src/graph/bfs.h"
#include "src/graph/graph_builder.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

void ExpectRoundTrip(const CompatRow& row, const char* what) {
  const std::vector<uint8_t> blob = EncodeRow(row);
  CompatRow decoded;
  // Poison the output: DecodeRow must fully replace previous contents.
  decoded.comp.assign(3, 99);
  decoded.dist = RowDistances(7, 99);
  decoded.saturated = !row.saturated;
  ASSERT_TRUE(DecodeRow(blob, &decoded)) << what;
  EXPECT_EQ(decoded.comp, row.comp) << what;
  EXPECT_EQ(decoded.dist, row.dist) << what;
  // Decoding yields the narrowest width, whatever width was encoded.
  EXPECT_EQ(decoded.dist.width(), RowDistances::WidthFor(row.dist.MaxFinite()))
      << what;
  EXPECT_EQ(decoded.saturated, row.saturated) << what;
}

TEST(RowCodecTest, RoundTripAllKindsOnRandomGraphs) {
  Rng rng(101);
  for (uint32_t n : {17u, 48u}) {
    SignedGraph g = RandomConnectedGnm(n, n * 2 + 10, 0.3, &rng);
    RowKernelParams params;
    for (CompatKind kind : AllCompatKinds()) {
      for (NodeId q = 0; q < g.num_nodes(); q += 3) {
        CompatRow row = ComputeCompatRow(g, kind, params, q);
        ExpectRoundTrip(row, CompatKindName(kind));
      }
    }
  }
}

TEST(RowCodecTest, RoundTripThresholdRelation) {
  Rng rng(103);
  SignedGraph g = RandomConnectedGnm(30, 75, 0.35, &rng);
  for (double theta : {0.0, 0.4, 1.0}) {
    RowKernelParams params;
    params.threshold_theta = theta;
    for (NodeId q = 0; q < g.num_nodes(); q += 5) {
      ExpectRoundTrip(ComputeThresholdRow(g, params, q), "threshold");
    }
  }
}

TEST(RowCodecTest, RoundTripUnreachableRunsOnFragmentedGraph) {
  // Two components: BFS rows from the small one are almost all
  // kUnreachable — the RLE path's home turf.
  SignedGraphBuilder b(40);
  for (NodeId u = 0; u + 1 < 5; ++u) {
    b.AddEdge(u, u + 1, Sign::kPositive).CheckOK();
  }
  for (NodeId u = 5; u + 1 < 40; ++u) {
    b.AddEdge(u, u + 1, u % 3 == 0 ? Sign::kNegative : Sign::kPositive)
        .CheckOK();
  }
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  RowKernelParams params;
  for (CompatKind kind : AllCompatKinds()) {
    CompatRow row = ComputeCompatRow(g, kind, params, 2);
    const std::vector<uint32_t> dist = row.dist.ToVector();
    EXPECT_NE(std::count(dist.begin(), dist.end(), kUnreachable), 0)
        << CompatKindName(kind);
    ExpectRoundTrip(row, CompatKindName(kind));
  }
}

TEST(RowCodecTest, RoundTripRaggedHandBuiltRows) {
  Rng rng(107);
  for (uint32_t n : {1u, 3u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    CompatRow row;
    row.comp.resize(n);
    row.dist = RowDistances(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      row.comp[i] = static_cast<uint8_t>(rng.Next() % 2);
      const uint64_t r = rng.Next() % 10;
      row.dist.Set(i, r == 0 ? kUnreachable : static_cast<uint32_t>(r));
    }
    row.saturated = (n % 2) == 0;
    ExpectRoundTrip(row, "ragged");
  }
}

TEST(RowCodecTest, RoundTripEmptyAndSaturatedRows) {
  CompatRow empty;
  ExpectRoundTrip(empty, "empty");
  CompatRow sat;
  sat.comp.assign(10, 1);
  sat.dist = RowDistances(10, 2);
  sat.saturated = true;
  ExpectRoundTrip(sat, "saturated");
}

TEST(RowCodecTest, RawFallbacksKeepArbitraryRowsBitIdentical) {
  // comp values outside {0,1} force the raw comp path (hand-built rows in
  // the cache tests use these).
  CompatRow weird;
  weird.comp.assign(20, 7);
  weird.dist = RowDistances(20, 7);
  ExpectRoundTrip(weird, "comp>1");

  // Huge, distinct finite distances exceed the bit-pack lane limit and
  // defeat RLE: the raw dist path must carry them exactly.
  Rng rng(109);
  CompatRow big;
  big.comp.assign(50, 1);
  big.dist = RowDistances(50, 0);
  for (uint32_t i = 0; i < 50; ++i) {
    big.dist.Set(i, static_cast<uint32_t>(rng.Next()));
  }
  ExpectRoundTrip(big, "large-dist");
}

// Blobs of fixed hand-built rows, captured before rows stored their
// distances at 1, 2 or 4 bytes: EncodeRow must still produce exactly these
// bytes and they must decode to the same rows, so spill files written by
// earlier builds stay readable. One row per dist encoding — bit-packed
// (saturated, bitset comp), RLE (width-2 values) and raw u32 (raw comp).
TEST(RowCodecTest, GoldenBlobsStayByteIdentical) {
  CompatRow packed;
  std::vector<uint32_t> packed_dist;
  for (uint32_t i = 0; i < 20; ++i) {
    packed.comp.push_back(static_cast<uint8_t>(i % 3 == 0));
    packed_dist.push_back(i % 7 == 5 ? kUnreachable : i % 6);
  }
  packed.dist = RowDistances(packed_dist);
  packed.saturated = true;
  const std::vector<uint8_t> packed_blob = {
      0x01, 0x01, 0x01, 0x03, 0x14, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00,
      0x49, 0x92, 0x04, 0x88, 0xc6, 0x23, 0x1a, 0xfb, 0x68, 0x2c, 0x0e};

  CompatRow rle;
  std::vector<uint32_t> rle_dist;
  for (uint32_t i = 0; i < 40; ++i) {
    rle.comp.push_back(i < 30);
    rle_dist.push_back(i < 30 ? 300 : kUnreachable);
  }
  rle.dist = RowDistances(rle_dist);
  const std::vector<uint8_t> rle_blob = {
      0x01, 0x00, 0x02, 0x00, 0x28, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00,
      0x00, 0xff, 0xff, 0xff, 0x3f, 0x00, 0xad, 0x02, 0x1e, 0x00, 0x0a};

  CompatRow raw;
  raw.comp = {2, 0, 1, 7};
  const std::vector<uint32_t> raw_dist = {0xF0000000u, 0xE0000001u,
                                          kUnreachable, 0xFFFFFFFEu};
  raw.dist = RowDistances(raw_dist);
  const std::vector<uint8_t> raw_blob = {
      0x01, 0x02, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
      0x00, 0x02, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0xf0, 0x01, 0x00,
      0x00, 0xe0, 0xff, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff};

  EXPECT_EQ(packed.dist.width(), 1u);
  EXPECT_EQ(rle.dist.width(), 2u);
  EXPECT_EQ(raw.dist.width(), 4u);
  const std::pair<const CompatRow*, const std::vector<uint8_t>*> cases[] = {
      {&packed, &packed_blob}, {&rle, &rle_blob}, {&raw, &raw_blob}};
  for (const auto& [row, blob] : cases) {
    EXPECT_EQ(EncodeRow(*row), *blob);
    CompatRow decoded;
    ASSERT_TRUE(DecodeRow(*blob, &decoded));
    EXPECT_EQ(decoded.comp, row->comp);
    EXPECT_EQ(decoded.dist, row->dist);
    EXPECT_EQ(decoded.dist.width(), row->dist.width());
    EXPECT_EQ(decoded.saturated, row->saturated);
  }
}

TEST(RowCodecTest, CompressesKernelRowsAtLeastFiveFold) {
  Rng rng(113);
  SignedGraph g = RandomConnectedGnm(400, 1200, 0.3, &rng);
  RowKernelParams params;
  size_t dense = 0;
  size_t encoded = 0;
  for (NodeId q = 0; q < g.num_nodes(); q += 13) {
    CompatRow row = ComputeCompatRow(g, CompatKind::kSPM, params, q);
    dense += DenseRowBytes(row);
    encoded += EncodeRow(row).size();
  }
  ASSERT_GT(encoded, 0u);
  EXPECT_GE(static_cast<double>(dense) / static_cast<double>(encoded), 5.0);
}

TEST(RowCodecTest, DecodeRejectsMalformedBlobs) {
  CompatRow row;
  row.comp.assign(32, 1);
  row.dist = RowDistances(32, 3);
  const std::vector<uint8_t> blob = EncodeRow(row);
  CompatRow out;

  // Truncations at every prefix length must fail, never crash or succeed.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(
        DecodeRow(std::span<const uint8_t>(blob.data(), len), &out))
        << "len=" << len;
  }
  // Trailing garbage is not a valid blob either.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(DecodeRow(padded, &out));
  // Unknown codec versions are rejected outright.
  std::vector<uint8_t> wrong_version = blob;
  wrong_version[0] = kRowCodecVersion + 1;
  EXPECT_FALSE(DecodeRow(wrong_version, &out));
  // An impossible element count cannot allocate its way to success.
  std::vector<uint8_t> huge = blob;
  huge[4] = huge[5] = huge[6] = huge[7] = 0xFF;
  EXPECT_FALSE(DecodeRow(huge, &out));
}

}  // namespace
}  // namespace tfsn
