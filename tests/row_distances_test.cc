// The per-row distance store (RowDistances, row_kernels.h): width choice at
// the 1/2/4-byte boundaries, kUnreachable at every width, in-place widening
// on Set, value equality across widths, the gather, and
// CompatRow::ByteSize() following the width.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/compat/row_kernels.h"
#include "src/graph/bfs.h"

namespace tfsn {
namespace {

TEST(RowDistancesTest, WidthIsTheNarrowestThatHoldsTheValues) {
  struct Case {
    uint32_t max_finite;
    uint32_t width;
  };
  for (const Case c : {Case{0, 1}, Case{254, 1}, Case{255, 2},
                       Case{65534, 2}, Case{65535, 4},
                       Case{kUnreachable - 1, 4}}) {
    const std::vector<uint32_t> dense = {0, c.max_finite, kUnreachable,
                                         c.max_finite / 2};
    const RowDistances dist(dense);
    EXPECT_EQ(dist.width(), c.width) << c.max_finite;
    EXPECT_EQ(RowDistances::WidthFor(c.max_finite), c.width);
    EXPECT_EQ(dist.MaxFinite(), c.max_finite);
    EXPECT_EQ(dist.ToVector(), dense) << c.max_finite;
    const RowDistances filled(3, c.max_finite);
    EXPECT_EQ(filled.width(), c.width) << c.max_finite;
    EXPECT_EQ(filled[2], c.max_finite);
  }
}

TEST(RowDistancesTest, UnreachableIsExactAtEveryWidth) {
  for (const uint32_t max_finite : {7u, 300u, 70000u}) {
    RowDistances dist(std::vector<uint32_t>{kUnreachable, max_finite,
                                            kUnreachable});
    EXPECT_EQ(dist[0], kUnreachable) << max_finite;
    EXPECT_EQ(dist[1], max_finite);
    EXPECT_EQ(dist[2], kUnreachable) << max_finite;
    dist.Set(1, kUnreachable);
    EXPECT_EQ(dist[1], kUnreachable) << max_finite;
  }
  const RowDistances none(5, kUnreachable);
  EXPECT_EQ(none.width(), 1u);
  EXPECT_EQ(none.MaxFinite(), 0u);
  EXPECT_EQ(none.ToVector(), std::vector<uint32_t>(5, kUnreachable));
}

TEST(RowDistancesTest, SetWidensInPlaceAndKeepsEveryValue) {
  RowDistances dist(6, kUnreachable);
  dist.Set(0, 3);
  dist.Set(1, 254);
  EXPECT_EQ(dist.width(), 1u);
  dist.Set(2, 255);
  EXPECT_EQ(dist.width(), 2u);
  dist.Set(3, 65534);
  EXPECT_EQ(dist.width(), 2u);
  dist.Set(4, 65535);
  EXPECT_EQ(dist.width(), 4u);
  EXPECT_EQ(dist.ToVector(), (std::vector<uint32_t>{3, 254, 255, 65534, 65535,
                                                    kUnreachable}));
  // Widening writes leave the store at the canonical width of its values.
  EXPECT_EQ(dist.width(), RowDistances::WidthFor(dist.MaxFinite()));
}

TEST(RowDistancesTest, EqualityIsByValueAcrossWidths) {
  const std::vector<uint32_t> dense = {0, 1, kUnreachable, 9};
  const RowDistances narrow(dense);
  RowDistances wide(dense);
  wide.Set(1, 70000);  // widens to 4 bytes ...
  wide.Set(1, 1);      // ... and keeps that width after the overwrite
  EXPECT_EQ(wide.width(), 4u);
  EXPECT_EQ(narrow.width(), 1u);
  EXPECT_EQ(wide, narrow);
  EXPECT_EQ(narrow, wide);
  // Rebuilt from its values, the store is back at the narrowest width.
  const RowDistances rebuilt(wide.ToVector());
  EXPECT_EQ(rebuilt.width(), 1u);
  EXPECT_EQ(rebuilt, narrow);

  RowDistances other(dense);
  other.Set(2, 4);
  EXPECT_NE(other, narrow);
  EXPECT_NE(RowDistances(3, 0), RowDistances(4, 0));
  EXPECT_EQ(RowDistances(), RowDistances(std::vector<uint32_t>{}));
}

TEST(RowDistancesTest, GatherMatchesIndexingAtEveryWidth) {
  const std::vector<NodeId> index = {5, 0, 2, 3, 3, 1};  // 2: kUnreachable
  for (const uint32_t big : {200u, 40000u, 5000000u}) {
    const RowDistances dist(
        std::vector<uint32_t>{0, big, kUnreachable, 7, 1, big - 1});
    std::vector<uint32_t> out(index.size());
    dist.Gather(index, out.data());
    for (size_t j = 0; j < index.size(); ++j) {
      EXPECT_EQ(out[j], dist[index[j]]) << big << " j=" << j;
    }
  }
}

TEST(RowDistancesTest, ByteSizeFollowsTheWidth) {
  constexpr size_t kNodes = 1000;
  for (const uint32_t value : {10u, 1000u, 100000u}) {
    CompatRow row;
    row.comp.assign(kNodes, 1);
    row.dist = RowDistances(kNodes, value);
    row.ShrinkToFit();
    EXPECT_EQ(row.ByteSize(),
              sizeof(CompatRow) + kNodes + kNodes * row.dist.width())
        << value;
  }
  CompatRow narrow, wide;
  narrow.dist = RowDistances(kNodes, 1);
  wide.dist = RowDistances(kNodes, 1);
  wide.dist.Set(0, 70000);
  wide.ShrinkToFit();
  EXPECT_EQ(wide.ByteSize() - narrow.ByteSize(), 3 * kNodes);
}

}  // namespace
}  // namespace tfsn
