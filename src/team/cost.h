// Team communication cost and validity checks (paper Sections 2 and 4).
//
// Cost(X) is the largest relation distance between any two team members
// (the team "diameter" under the compatibility-specific distance).

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "src/compat/compatibility.h"
#include "src/skills/skills.h"
#include "src/team/task_view.h"

namespace tfsn {

/// Cost(X): max pairwise oracle distance; 0 for teams of size <= 1;
/// kUnreachable if any pair has no finite relation distance.
uint32_t TeamDiameter(CompatibilityOracle* oracle,
                      std::span<const NodeId> team);

/// Dense-view variant: `team_local` holds view-local ids. Returns exactly
/// what the oracle overload returns for the corresponding global ids —
/// the view stores the oracle's distances unchanged.
uint32_t TeamDiameter(const TaskCompatView& view,
                      std::span<const uint32_t> team_local);

/// Alternative communication-cost objectives (the paper's future work asks
/// for "different ways to combine compatibility and communication cost").
enum class CostKind : uint8_t {
  /// Max pairwise distance — the paper's Cost(X).
  kDiameter,
  /// Sum of all pairwise distances (the SUM-DISTANCE objective of
  /// Kargar & An).
  kSumOfPairs,
  /// Min over members c of the sum of distances from c to the rest (a
  /// leader/star objective).
  kCenterStar,
};

const char* CostKindName(CostKind kind);

/// Evaluates the chosen objective; kUnreachable-valued pairs poison the
/// cost to kUnreachable (as uint64). 0 for teams of size <= 1.
uint64_t TeamCost(CompatibilityOracle* oracle, std::span<const NodeId> team,
                  CostKind kind);

/// Dense-view variant of TeamCost; bit-identical to the oracle overload.
uint64_t TeamCost(const TaskCompatView& view,
                  std::span<const uint32_t> team_local, CostKind kind);

/// Generic core of TeamDiameter over any symmetric pair-distance callable
/// `dist(i, j) -> uint32_t` (member indexes i != j; kUnreachable for
/// unreachable pairs). The oracle and view overloads are wrappers, and the
/// sharded coordinator (src/dist/) runs the same loop over its gathered
/// distance matrix — one implementation, bit-identical everywhere.
template <typename DistFn>
uint32_t TeamDiameterOver(size_t team_size, DistFn&& dist) {
  uint32_t diameter = 0;
  for (size_t i = 0; i < team_size; ++i) {
    for (size_t j = i + 1; j < team_size; ++j) {
      const uint32_t d = dist(i, j);
      if (d == kUnreachable) return kUnreachable;
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

/// Generic core of TeamCost (same callable contract as TeamDiameterOver).
template <typename DistFn>
uint64_t TeamCostOver(size_t team_size, CostKind kind, DistFn&& dist) {
  constexpr uint64_t kInfinite = std::numeric_limits<uint64_t>::max();
  if (team_size <= 1) return 0;
  switch (kind) {
    case CostKind::kDiameter: {
      const uint32_t d = TeamDiameterOver(team_size, dist);
      return d == kUnreachable ? kInfinite : d;
    }
    case CostKind::kSumOfPairs: {
      uint64_t sum = 0;
      for (size_t i = 0; i < team_size; ++i) {
        for (size_t j = i + 1; j < team_size; ++j) {
          const uint32_t d = dist(i, j);
          if (d == kUnreachable) return kInfinite;
          sum += d;
        }
      }
      return sum;
    }
    case CostKind::kCenterStar: {
      uint64_t best = kInfinite;
      for (size_t c = 0; c < team_size; ++c) {
        uint64_t star = 0;
        bool ok = true;
        for (size_t i = 0; i < team_size; ++i) {
          if (i == c) continue;
          const uint32_t d = dist(c, i);
          if (d == kUnreachable) {
            ok = false;
            break;
          }
          star += d;
        }
        if (ok) best = std::min(best, star);
      }
      return best;
    }
  }
  return kInfinite;
}

/// True iff every pair of members is compatible (requirement (2) of
/// Definition 2.1). Vacuously true for teams of size <= 1.
bool TeamCompatible(CompatibilityOracle* oracle, std::span<const NodeId> team);

/// Dense-view variant of TeamCompatible; bit-identical to the oracle
/// overload (including the SBPH symmetric closure).
bool TeamCompatible(const TaskCompatView& view,
                    std::span<const uint32_t> team_local);

/// True iff the members collectively cover the task (requirement (1)).
bool TeamCoversTask(const SkillAssignment& skills, const Task& task,
                    std::span<const NodeId> team);

}  // namespace tfsn
