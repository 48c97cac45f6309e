// Compressed wire/cache format for CompatRow — tier 0 of the tiered row
// store (see row_cache.h).
//
// A flat CompatRow costs 1 comp byte plus 1, 2 or 4 distance bytes per graph
// node (RowDistances keeps the narrowest width that holds the row's distances:
// 2 bytes per node in all on typical graphs, ~29 KB per row at n = 14,427), so
// the row working set can still outgrow a realistic cache budget. Rows are
// however highly compressible: comp is a 0/1 flag per node (bit-packable 8x)
// and dist is a small BFS level bounded by the relation diameter (bit-packable
// to a few bits) or long runs of kUnreachable on fragmented graphs (run-length
// encodable). EncodeRow picks the cheapest representation per section and
// records the choice in a 12-byte header, so DecodeRow reconstructs the row
// *bit-identically* — comp, dist, and the saturated flag — for every relation,
// including hand-built rows whose comp values are not 0/1 (those fall back to
// raw bytes).
//
// Blob layout (little-endian):
//   u8  version (kRowCodecVersion)
//   u8  flags        bit 0 = saturated, bit 1 = comp stored raw
//   u8  dist_tag     0 = raw u32 | 1 = bit-packed | 2 = RLE varint
//   u8  dist_bits    lane width b for tag 1 (0 otherwise)
//   u32 comp_size    number of comp entries
//   u32 dist_size    number of dist entries
//   comp payload     ceil(comp_size / 8) bitset bytes, or comp_size raw
//   dist payload     tag-dependent (see row_codec.cc)
//
// The codec is pure and stateless; integrity (CRC) is layered on by the
// spill store, which checksums whole records.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/compat/row_kernels.h"

namespace tfsn {

/// Bump when the blob layout changes; DecodeRow rejects other versions.
inline constexpr uint8_t kRowCodecVersion = 1;

/// Encodes `row` into a self-describing blob (layout above). Never fails;
/// the raw fallbacks cover every representable row.
std::vector<uint8_t> EncodeRow(const CompatRow& row);

/// Decodes a blob produced by EncodeRow into `*row` (previous contents
/// replaced). Returns false — leaving `*row` unspecified — when the blob
/// is truncated, malformed, or from an unknown codec version.
bool DecodeRow(std::span<const uint8_t> blob, CompatRow* row);

/// The fixed reference footprint compression ratios are reported against:
/// the row with 4-byte distances (object + comp + 4 bytes per distance,
/// independent of capacity slack and of the store's width), so ratios stay
/// comparable whatever width a row's distances take in memory. A flat
/// row's resident bytes are CompatRow::ByteSize().
inline size_t DenseRowBytes(const CompatRow& row) {
  return sizeof(CompatRow) + row.comp.size() * sizeof(uint8_t) +
         row.dist.size() * sizeof(uint32_t);
}

}  // namespace tfsn
