// Stateless per-source row kernels for the compatibility relations of the
// paper (Section 3), one free function per relation:
//
//   DPE  — direct positive edge            (Definition 3.1, strictest)
//   SPA  — all shortest paths positive     (Definition 3.3)
//   SPM  — majority of shortest paths positive
//   SPO  — at least one positive shortest path
//   SBPH — heuristic structurally-balanced-path compatibility
//   SBP  — exact structurally-balanced-path compatibility (Definition 3.4)
//   NNE  — no direct negative edge         (Definition 3.2, most relaxed)
//
// plus the threshold (fractional) generalization of the SP family. Each
// kernel maps (graph, params, source) to a CompatRow — the compatibility
// flag and relation distance from the source to every node — with
// reflexivity normalized (comp[q] = 1, dist[q] = 0). Kernels hold no state
// and touch no caches, so any number of threads may run them concurrently
// on the same graph; caching and the symmetric pair view live in
// RowCache / CompatibilityOracle (see row_cache.h and compatibility.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/compat/sbp.h"
#include "src/graph/bfs.h"
#include "src/graph/signed_graph.h"

namespace tfsn {

/// Which compatibility relation a kernel or oracle implements.
enum class CompatKind : uint8_t {
  kDPE,
  kSPA,
  kSPM,
  kSPO,
  kSBPH,
  kSBP,
  kNNE,
};

/// Stable display name ("SPA", "SBPH", ...).
const char* CompatKindName(CompatKind kind);

/// Parses a name as produced by CompatKindName (case-insensitive).
/// Returns false for unknown names.
bool ParseCompatKind(const std::string& name, CompatKind* out);

/// All kinds in relaxation order (DPE strictest ... NNE most relaxed,
/// with SBPH just before SBP).
std::vector<CompatKind> AllCompatKinds();

/// Distances from a row's source to every node, each stored in the
/// narrowest width that holds the row's finite values: 1 byte while every
/// finite distance is at most 254, else 2 bytes (at most 65,534), else 4.
/// Every width reserves its all-ones value for kUnreachable, so reads
/// return kUnreachable exactly whatever the width. Path-length distances on
/// real graphs are small, so a row usually costs 1 byte per node here
/// instead of 4.
///
/// The constructors pick the narrowest width, and Set() widens the store
/// in place when a value does not fit. Writes never narrow it: the kernels
/// write each distance once, so their rows always sit at the narrowest
/// width of their values, and a row costs the same bytes whichever kernel
/// computed it. Entries live in one byte buffer and are read through byte
/// offsets, so no access depends on the buffer's alignment.
class RowDistances {
 public:
  /// Largest finite distance each width holds; one more is its sentinel.
  static constexpr uint32_t kMax8 = 0xFE;
  static constexpr uint32_t kMax16 = 0xFFFE;

  RowDistances() = default;
  /// `n` entries, all `value`.
  RowDistances(size_t n, uint32_t value);
  /// The values of `dense`, at the narrowest width that holds them.
  explicit RowDistances(std::span<const uint32_t> dense);

  size_t size() const { return size_; }
  /// Bytes per entry: 1, 2 or 4.
  uint32_t width() const { return width_; }

  uint32_t operator[](size_t i) const {
    switch (width_) {
      case 1: return Load<uint8_t>(bytes_.data(), i);
      case 2: return Load<uint16_t>(bytes_.data(), i);
      default: return Load<uint32_t>(bytes_.data(), i);
    }
  }

  /// Sets entry `i` to `d` (kUnreachable allowed), first widening the
  /// store when `d` does not fit its width.
  void Set(size_t i, uint32_t d) {
    if (d != kUnreachable && d > MaxOf(width_)) Widen(WidthFor(d));
    switch (width_) {
      case 1: Store<uint8_t>(i, d); break;
      case 2: Store<uint16_t>(i, d); break;
      default: Store<uint32_t>(i, d); break;
    }
  }

  /// out[j] = (*this)[index[j]] for every j, with the width resolved once
  /// for the whole gather.
  void Gather(std::span<const NodeId> index, uint32_t* out) const;

  /// Largest finite entry (0 when there is none).
  uint32_t MaxFinite() const;
  /// The values as plain 4-byte distances.
  std::vector<uint32_t> ToVector() const;

  /// Heap bytes held, counting capacity (see CompatRow::ByteSize).
  size_t capacity_bytes() const { return bytes_.capacity(); }
  void ShrinkToFit() { bytes_.shrink_to_fit(); }

  /// Value equality: stores of different widths holding the same values
  /// compare equal.
  friend bool operator==(const RowDistances& a, const RowDistances& b);

  /// The narrowest width (1, 2 or 4) that holds `max_finite`.
  static uint32_t WidthFor(uint32_t max_finite) {
    return max_finite <= kMax8 ? 1 : max_finite <= kMax16 ? 2 : 4;
  }

 private:
  static uint32_t MaxOf(uint32_t width) {
    return width == 1 ? kMax8 : width == 2 ? kMax16 : kUnreachable - 1;
  }
  template <typename T>
  static uint32_t Load(const uint8_t* base, size_t i) {
    T v;
    std::memcpy(&v, base + i * sizeof(T), sizeof(T));
    return v == static_cast<T>(~T{0}) ? kUnreachable : v;
  }
  template <typename T>
  void Store(size_t i, uint32_t d) {
    const T v = static_cast<T>(d);  // kUnreachable truncates to all-ones
    std::memcpy(bytes_.data() + i * sizeof(T), &v, sizeof(T));
  }
  // Re-encodes every entry at the wider `width`.
  void Widen(uint32_t width);

  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
  uint32_t width_ = 1;
};

/// Prints the values (gtest failure messages).
void PrintTo(const RowDistances& dist, std::ostream* os);

/// A per-source result: flags and distances from a fixed query node to
/// every node in the graph.
struct CompatRow {
  /// comp[x] != 0 iff (source, x) is in the relation.
  std::vector<uint8_t> comp;
  /// Relation-specific distance; kUnreachable possible.
  RowDistances dist;
  /// True when an underlying shortest-path counter saturated while this
  /// row was computed (SP-family kernels only; see SignedBfsResult). The
  /// row is still sound for SPA/SPO; SPM majority tests may be distorted
  /// on adversarially dense graphs.
  bool saturated = false;

  /// Approximate heap + object footprint, used by the RowCache byte
  /// budget: 1 comp byte plus dist.width() bytes per node. Counts
  /// capacity, not size: after moves the buffers' capacities can diverge
  /// from their sizes, so the cache calls ShrinkToFit() first to keep its
  /// byte accounting honest.
  size_t ByteSize() const {
    return sizeof(CompatRow) + comp.capacity() * sizeof(uint8_t) +
           dist.capacity_bytes();
  }

  /// Releases excess capacity so ByteSize() reflects the bytes the row
  /// actually needs.
  void ShrinkToFit() {
    comp.shrink_to_fit();
    dist.ShrinkToFit();
  }
};

/// Tuning knobs shared by the kernels. A kernel reads only the fields that
/// concern its relation.
struct RowKernelParams {
  /// Exact-SBP engine tuning (SBP kernel only).
  SbpExactParams sbp;
  /// Depth bound for the SBPH search (SBPH kernel only).
  uint32_t sbph_max_depth = kUnreachable;
  /// Threshold θ for the fractional SP kernel (threshold kernel only);
  /// ignored by the named relations.
  double threshold_theta = -1.0;
};

/// Uniform kernel signature: pure function of (graph, params, source).
using RowKernelFn = CompatRow (*)(const SignedGraph&, const RowKernelParams&,
                                  NodeId);

// Per-relation kernels. All are O(n + m) except ComputeSbpRow (one exact
// iterative-deepening search per target) and ComputeSbphRow (label-setting
// over (node, side) states). ComputeSbphRow is *directional* — paths are
// searched from q — matching the paper's per-source methodology; the
// symmetric pair closure is applied by CompatibilityOracle.
CompatRow ComputeDpeRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);
CompatRow ComputeSpaRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);
CompatRow ComputeSpmRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);
CompatRow ComputeSpoRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);
CompatRow ComputeSbphRow(const SignedGraph& g, const RowKernelParams& p,
                         NodeId q);
CompatRow ComputeSbpRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);
CompatRow ComputeNneRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q);

/// Threshold (fractional) SP kernel: comp iff the fraction of positive
/// shortest paths is >= p.threshold_theta (θ == 0 degenerates to "> 0" so
/// negative-edge incompatibility holds). See threshold.h.
CompatRow ComputeThresholdRow(const SignedGraph& g, const RowKernelParams& p,
                              NodeId q);

/// The kernel implementing a named relation.
RowKernelFn KernelForKind(CompatKind kind);

/// Convenience dispatch: KernelForKind(kind)(g, params, q).
CompatRow ComputeCompatRow(const SignedGraph& g, CompatKind kind,
                           const RowKernelParams& params, NodeId q);

}  // namespace tfsn
