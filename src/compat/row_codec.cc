#include "src/compat/row_codec.h"

#include <algorithm>
#include <cstring>

#include "src/graph/bfs.h"

namespace tfsn {

namespace {

// Header field offsets (see row_codec.h for the layout).
constexpr size_t kHeaderBytes = 12;
constexpr uint8_t kFlagSaturated = 1u << 0;
constexpr uint8_t kFlagCompRaw = 1u << 1;
constexpr uint8_t kDistRaw = 0;
constexpr uint8_t kDistBitPacked = 1;
constexpr uint8_t kDistRle = 2;
// Bit-packed lanes wider than this would rarely beat raw; RLE or raw
// handles rows with huge finite distances.
constexpr uint32_t kMaxPackBits = 24;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// LEB128 varint (u32: at most 5 bytes).
void PutVarint(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

size_t VarintSize(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80u) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Reads one varint; advances *pos. False on truncation/overflow.
bool GetVarint(std::span<const uint8_t> blob, size_t* pos, uint32_t* v) {
  uint32_t out = 0;
  for (uint32_t shift = 0; shift < 35; shift += 7) {
    if (*pos >= blob.size()) return false;
    const uint8_t byte = blob[(*pos)++];
    out |= static_cast<uint32_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      *v = out;
      return true;
    }
  }
  return false;  // more than 5 continuation bytes: not a u32
}

// kUnreachable maps to 0 so the common "reachable, small level" values
// stay small and unreachable runs RLE-compress as runs of zero.
uint32_t MapDist(uint32_t d) { return d == kUnreachable ? 0 : d + 1; }
uint32_t UnmapDist(uint32_t m) { return m == 0 ? kUnreachable : m - 1; }

// --- dist encodings -------------------------------------------------------

// Lane width for bit-packing: the smallest b whose all-ones sentinel
// (reserved for kUnreachable) still exceeds every finite distance.
// 0 when the row cannot be packed within kMaxPackBits.
uint32_t PackBitsFor(const RowDistances& dist) {
  const uint32_t max_finite = dist.MaxFinite();
  for (uint32_t b = 1; b <= kMaxPackBits; ++b) {
    if (max_finite < (1u << b) - 1u) return b;
  }
  return 0;
}

size_t BitPackedSize(size_t n, uint32_t bits) { return (n * bits + 7) / 8; }

void EncodeBitPacked(const RowDistances& dist, uint32_t bits,
                     std::vector<uint8_t>* out) {
  const uint32_t sentinel = (1u << bits) - 1u;
  const size_t start = out->size();
  out->resize(start + BitPackedSize(dist.size(), bits), 0);
  uint8_t* bytes = out->data() + start;
  size_t bit_pos = 0;
  for (size_t i = 0; i < dist.size(); ++i) {
    const uint32_t d = dist[i];
    const uint32_t v = d == kUnreachable ? sentinel : d;
    for (uint32_t b = 0; b < bits; ++b, ++bit_pos) {
      bytes[bit_pos >> 3] |=
          static_cast<uint8_t>(((v >> b) & 1u) << (bit_pos & 7));
    }
  }
}

bool DecodeBitPacked(std::span<const uint8_t> blob, size_t* pos, uint32_t bits,
                     std::vector<uint32_t>* dist) {
  if (bits == 0 || bits > kMaxPackBits) return false;
  const size_t payload = BitPackedSize(dist->size(), bits);
  if (blob.size() - *pos < payload) return false;
  const uint8_t* bytes = blob.data() + *pos;
  const uint32_t sentinel = (1u << bits) - 1u;
  size_t bit_pos = 0;
  for (uint32_t& d : *dist) {
    uint32_t v = 0;
    for (uint32_t b = 0; b < bits; ++b, ++bit_pos) {
      v |= static_cast<uint32_t>((bytes[bit_pos >> 3] >> (bit_pos & 7)) & 1u)
           << b;
    }
    d = v == sentinel ? kUnreachable : v;
  }
  *pos += payload;
  return true;
}

// RLE over mapped values: (varint value, varint run_length) pairs.
size_t RleSize(const RowDistances& dist) {
  size_t total = 0;
  for (size_t i = 0; i < dist.size();) {
    size_t j = i + 1;
    while (j < dist.size() && dist[j] == dist[i]) ++j;
    total += VarintSize(MapDist(dist[i])) +
             VarintSize(static_cast<uint32_t>(j - i));
    i = j;
  }
  return total;
}

void EncodeRle(const RowDistances& dist, std::vector<uint8_t>* out) {
  for (size_t i = 0; i < dist.size();) {
    size_t j = i + 1;
    while (j < dist.size() && dist[j] == dist[i]) ++j;
    PutVarint(out, MapDist(dist[i]));
    PutVarint(out, static_cast<uint32_t>(j - i));
    i = j;
  }
}

bool DecodeRle(std::span<const uint8_t> blob, size_t* pos,
               std::vector<uint32_t>* dist) {
  size_t filled = 0;
  while (filled < dist->size()) {
    uint32_t mapped = 0;
    uint32_t run = 0;
    if (!GetVarint(blob, pos, &mapped) || !GetVarint(blob, pos, &run)) {
      return false;
    }
    if (run == 0 || run > dist->size() - filled) return false;
    const uint32_t value = UnmapDist(mapped);
    std::fill_n(dist->begin() + static_cast<ptrdiff_t>(filled), run, value);
    filled += run;
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeRow(const CompatRow& row) {
  const size_t n_comp = row.comp.size();
  const size_t n_dist = row.dist.size();

  // comp: bitset unless some value is outside {0, 1} (kernel rows are
  // always 0/1; the raw path keeps arbitrary rows bit-identical too).
  const bool comp_raw =
      std::any_of(row.comp.begin(), row.comp.end(),
                  [](uint8_t c) { return c > 1; });

  // dist: cheapest of bit-packed / RLE / raw (deterministic tie-break in
  // that order).
  const uint32_t pack_bits = PackBitsFor(row.dist);
  const size_t packed_size =
      pack_bits == 0 ? SIZE_MAX : BitPackedSize(n_dist, pack_bits);
  const size_t rle_size = RleSize(row.dist);
  const size_t raw_size = n_dist * sizeof(uint32_t);
  uint8_t dist_tag = kDistRaw;
  size_t dist_size = raw_size;
  if (rle_size < dist_size) {
    dist_tag = kDistRle;
    dist_size = rle_size;
  }
  if (packed_size <= dist_size) {
    dist_tag = kDistBitPacked;
    dist_size = packed_size;
  }

  std::vector<uint8_t> blob;
  blob.reserve(kHeaderBytes + (comp_raw ? n_comp : (n_comp + 7) / 8) +
               dist_size);
  blob.push_back(kRowCodecVersion);
  uint8_t flags = 0;
  if (row.saturated) flags |= kFlagSaturated;
  if (comp_raw) flags |= kFlagCompRaw;
  blob.push_back(flags);
  blob.push_back(dist_tag);
  blob.push_back(dist_tag == kDistBitPacked ? static_cast<uint8_t>(pack_bits)
                                            : 0);
  PutU32(&blob, static_cast<uint32_t>(n_comp));
  PutU32(&blob, static_cast<uint32_t>(n_dist));

  if (comp_raw) {
    blob.insert(blob.end(), row.comp.begin(), row.comp.end());
  } else {
    const size_t start = blob.size();
    blob.resize(start + (n_comp + 7) / 8, 0);
    for (size_t i = 0; i < n_comp; ++i) {
      blob[start + (i >> 3)] |=
          static_cast<uint8_t>(row.comp[i] << (i & 7));
    }
  }

  switch (dist_tag) {
    case kDistBitPacked:
      EncodeBitPacked(row.dist, pack_bits, &blob);
      break;
    case kDistRle:
      EncodeRle(row.dist, &blob);
      break;
    default:
      for (size_t i = 0; i < n_dist; ++i) PutU32(&blob, row.dist[i]);
      break;
  }
  return blob;
}

bool DecodeRow(std::span<const uint8_t> blob, CompatRow* row) {
  if (blob.size() < kHeaderBytes || blob[0] != kRowCodecVersion) return false;
  const uint8_t flags = blob[1];
  const uint8_t dist_tag = blob[2];
  const uint8_t dist_bits = blob[3];
  const size_t n_comp = GetU32(blob.data() + 4);
  const size_t n_dist = GetU32(blob.data() + 8);
  // Reject sizes the blob cannot possibly carry before allocating.
  if (n_comp > blob.size() * 8 || (dist_tag == kDistRaw &&
                                   n_dist > blob.size() / sizeof(uint32_t))) {
    return false;
  }

  row->saturated = (flags & kFlagSaturated) != 0;
  size_t pos = kHeaderBytes;

  row->comp.assign(n_comp, 0);
  if ((flags & kFlagCompRaw) != 0) {
    if (blob.size() - pos < n_comp) return false;
    std::memcpy(row->comp.data(), blob.data() + pos, n_comp);
    pos += n_comp;
  } else {
    const size_t payload = (n_comp + 7) / 8;
    if (blob.size() - pos < payload) return false;
    for (size_t i = 0; i < n_comp; ++i) {
      row->comp[i] = (blob[pos + (i >> 3)] >> (i & 7)) & 1u;
    }
    pos += payload;
  }

  // The payload decodes to plain distances first; the store then takes
  // the narrowest width that holds them.
  std::vector<uint32_t> dist(n_dist, 0);
  switch (dist_tag) {
    case kDistRaw:
      if (blob.size() - pos < n_dist * sizeof(uint32_t)) return false;
      for (size_t i = 0; i < n_dist; ++i) {
        dist[i] = GetU32(blob.data() + pos + i * sizeof(uint32_t));
      }
      pos += n_dist * sizeof(uint32_t);
      break;
    case kDistBitPacked:
      if (!DecodeBitPacked(blob, &pos, dist_bits, &dist)) return false;
      break;
    case kDistRle:
      if (!DecodeRle(blob, &pos, &dist)) return false;
      break;
    default:
      return false;
  }
  row->dist = RowDistances(dist);
  return pos == blob.size();
}

}  // namespace tfsn
