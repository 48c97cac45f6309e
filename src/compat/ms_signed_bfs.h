// Bit-parallel multi-source signed BFS: up to 64 compatibility rows per
// traversal.
//
// Building a skill index or the Table 2 statistics is effectively an
// all-sources run of Algorithm 1 — one O(n + m) signed BFS per row, the
// dominant cost of every experiment. MS-BFS (Then et al., VLDB 2014)
// observes that concurrent BFS traversals over the same graph share almost
// all of their frontier work, and that packing one source per bit of a
// machine word turns the sharing into plain word-wide OR/AND operations.
//
// Every lane word has one bit per source. Per node, the level-synchronous
// traversal keeps
//
//   seen[x]   — sources that have reached x (their distance is settled)
//   visit[x]  — sources that settled x at the previous level (the frontier)
//   arrive[x] — sources arriving at x on this level
//
// An edge (u, x) carries the lanes visit[u] & ~seen[x]: exactly the
// sources for which it lies on a shortest path to x. What travels with
// those lanes depends on the relation:
//
//  * SPA and SPO only test the *existence* of a positive / negative
//    shortest path, so two settled planes per node suffice (pos[x], neg[x]
//    bit i: source i has a positive / negative shortest path to x).
//  * SPM decides by the *counts* N+ and N- of Algorithm 1, so each node
//    carries them bit-sliced: kMsBfsCountPlanes planes of N+ and of N-
//    (plane k holds bit k of every lane's count), plus the number of planes
//    in use. An edge does a masked ripple-carry add of the source node's
//    planes into the target's. The majority test N- > N+ is an MSB-first
//    bit-sliced compare.
//  * DPE and NNE need only the unsigned distances plus a direct-neighbour
//    scan.
//
// A negative edge swaps the positive and negative planes (sign-flip
// propagation), exactly as Algorithm 1 routes counts between N+ and N-.
// Per-(source, node) distances fall out of the level at which a source's
// bit first sets. Dense frontiers switch to a pull sweep over the
// not-yet-complete nodes (direction-optimizing BFS, Beamer et al.,
// SC 2012), which reads the compact SoA adjacency sequentially.
//
// The engine reproduces the scalar row kernels bit-for-bit in comp and dist for
// SPA, SPO, SPM, DPE and NNE, with each row's distances at the same width
// (RowDistances) as the scalar row's. SPM rows match in `saturated` too: a
// count that carries out of the top plane flags its lane, and the block
// recomputes that lane with the scalar kernel, so a block row saturates exactly
// when the scalar row does (at 2^64). The existence relations keep no counts,
// so their block rows never set `saturated` (the scalar SPA/SPO kernels can,
// on > 2^64 shortest paths; the flag never changes their comp or dist). The
// threshold relation and custom kernels stay scalar.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/compat/row_kernels.h"
#include "src/graph/signed_graph.h"

namespace tfsn {

/// Sources per traversal: one per bit of the lane word.
inline constexpr size_t kMsBfsBatchSize = 64;

/// Bit planes per SPM path count: a lane whose N+ or N- reaches
/// 2^kMsBfsCountPlanes anywhere is recomputed by the scalar kernel.
inline constexpr uint32_t kMsBfsCountPlanes = 16;

/// True when `kind`'s rows can be produced by the bit-parallel engine
/// (SPA, SPO, SPM, DPE, NNE; not SBPH or SBP).
bool MsBfsSupportsKind(CompatKind kind);

class MsBfsScratch;

/// Computes the rows of `sources` (1 .. kMsBfsBatchSize of them, duplicates
/// allowed) in one bit-parallel traversal. Rows are returned in source
/// order and are bit-identical to ComputeCompatRow(g, kind, {}, q) in comp
/// and dist, and for SPM in saturated (see above). Requires
/// MsBfsSupportsKind(kind). `scratch` (may be null) supplies reusable
/// buffers: O(n) words, plus 2 * kMsBfsCountPlanes words per node for SPM.
std::vector<CompatRow> ComputeCompatRowBlock(const SignedGraph& g,
                                             CompatKind kind,
                                             std::span<const NodeId> sources,
                                             MsBfsScratch* scratch = nullptr);

/// Traversal buffers that one thread reuses across blocks, so a worker
/// computing many blocks maps them once (on its first block). They are
/// mapped straight from the kernel and unmapped on destruction: at paper
/// scale they are megabytes, and short-lived workers handing them back to
/// malloc left them in the allocator's per-thread arenas (glibc also
/// raises its mmap threshold on such a free), which measurably inflated
/// peak RSS. Not thread-safe; use one per worker.
class MsBfsScratch {
 public:
  MsBfsScratch();
  ~MsBfsScratch();
  MsBfsScratch(const MsBfsScratch&) = delete;
  MsBfsScratch& operator=(const MsBfsScratch&) = delete;

  /// SPM lanes recomputed by the scalar kernel after a count overflowed,
  /// summed over every block computed with this scratch.
  uint64_t overflow_lanes() const { return overflow_lanes_; }

 private:
  friend std::vector<CompatRow> ComputeCompatRowBlock(
      const SignedGraph& g, CompatKind kind, std::span<const NodeId> sources,
      MsBfsScratch* scratch);

  struct Buffers;
  std::unique_ptr<Buffers> buffers_;
  uint64_t overflow_lanes_ = 0;
};

}  // namespace tfsn
