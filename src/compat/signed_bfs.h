// Algorithm 1 of the paper: the SP-compatibility algorithm.
//
// A modified BFS from a query node q that computes, for every node x, the
// shortest-path length L(x) and the numbers N+(x) / N-(x) of positive and
// negative shortest paths from q to x. The enumeration is possible because
// shortest paths have the prefix property: every shortest path to x through
// u extends a shortest path to u, so counts propagate level by level like
// in Brandes' betweenness algorithm — traversing a positive edge preserves
// each path's sign, a negative edge flips it.
//
// Shortest-path *counts* can grow combinatorially, so N+/N- use saturating
// uint64 arithmetic, and `saturated` reports when a counter hit the limit.
// Saturation can in principle distort the SPM majority test on adversarial
// graphs — a layered ladder whose counts double at each of more than 64
// layers gets there (tests/ms_signed_bfs_test.cc) — while SPA/SPO only
// test count positivity, which saturation never changes. On the
// social-network scales this library targets counts stay small: on the
// Epinions-like fixture (n = 14,427 and 28,854) no count needed more than
// 9 bits, so the bit-parallel SPM engine's 16 count planes
// (ms_signed_bfs.h) never overflowed there. That engine recomputes any lane
// that does overflow with this kernel, so its rows saturate exactly when
// these do.

#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/signed_graph.h"

namespace tfsn {

/// Per-source output of Algorithm 1.
struct SignedBfsResult {
  /// L(x): hop distance from q; kUnreachable when disconnected.
  std::vector<uint32_t> dist;
  /// N+(x): number of positive shortest q-x paths (saturating).
  std::vector<uint64_t> num_pos;
  /// N-(x): number of negative shortest q-x paths (saturating).
  std::vector<uint64_t> num_neg;

  /// True when any counter saturated (result still sound for SPA/SPO; the
  /// SPM majority test may be distorted).
  bool saturated = false;
};

/// Runs Algorithm 1 from `q`. O(n + m).
SignedBfsResult SignedShortestPathCount(const SignedGraph& g, NodeId q);

/// Convenience single-pair queries (each runs a full BFS from u; batch via
/// SignedShortestPathCount when querying many targets).
bool IsSpaCompatible(const SignedGraph& g, NodeId u, NodeId v);
bool IsSpmCompatible(const SignedGraph& g, NodeId u, NodeId v);
bool IsSpoCompatible(const SignedGraph& g, NodeId u, NodeId v);

}  // namespace tfsn
