#include "src/compat/ms_signed_bfs.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "src/graph/bfs.h"
#include "src/util/logging.h"

namespace tfsn {

bool MsBfsSupportsKind(CompatKind kind) {
  switch (kind) {
    case CompatKind::kSPA:
    case CompatKind::kSPO:
    case CompatKind::kSPM:
    case CompatKind::kDPE:
    case CompatKind::kNNE:
      return true;
    default:
      return false;
  }
}

namespace {

// What an edge into a node reads and writes, in one place: the seen lanes,
// and the lanes arriving this level over a positive (or unsigned) and over
// a negative shortest path.
struct alignas(32) NodeLanes {
  uint64_t seen = 0, arrive_pos = 0, arrive_neg = 0;
};

// A growable array of trivially copyable T in pages mapped from the kernel
// (zero-filled when first mapped) and unmapped on destruction; see
// MsBfsScratch for why the engine keeps its buffers out of malloc.
template <typename T>
class PageArray {
 public:
  PageArray() = default;
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;
  ~PageArray() { Unmap(); }

  // Room for n elements; contents are kept only while no remap is needed.
  T* Reserve(size_t n) {
    if (n > capacity_) {
      Unmap();
      void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      TFSN_CHECK(p != MAP_FAILED);
      data_ = static_cast<T*>(p);
      capacity_ = n;
    }
    return data_;
  }

  // Room for n elements, all set to T{}.
  T* Zeroed(size_t n) {
    T* p = Reserve(n);
    std::uninitialized_fill_n(p, n, T{});
    return p;
  }

 private:
  void Unmap() {
    if (data_ != nullptr) ::munmap(data_, capacity_ * sizeof(T));
    data_ = nullptr;
    capacity_ = 0;
  }

  T* data_ = nullptr;
  size_t capacity_ = 0;
};

}  // namespace

struct MsBfsScratch::Buffers {
  PageArray<NodeLanes> nodes;
  // SPM, DPE, NNE: the frontier lanes of every node.
  PageArray<uint64_t> visit;
  // SPA/SPO: the frontier lanes' and the settled lanes' pos/neg planes,
  // each interleaved (pos at 2x, neg at 2x + 1).
  PageArray<uint64_t> visit_signs, signs;
  // SPM: 2 * kMsBfsCountPlanes words per node, N+ and N- planes
  // interleaved (N+ plane k at 2k, N- plane k at 2k + 1), never cleared:
  // planes at or above planes_used[x] read as 0.
  PageArray<uint64_t> counts;
  PageArray<uint8_t> planes_used;
};

MsBfsScratch::MsBfsScratch() = default;
MsBfsScratch::~MsBfsScratch() = default;

namespace {

// What travels with the lanes that take an edge. Each policy owns the
// frontier and provides
//   kSigned                       — whether Edge needs the edge's sign
//   Visit(u)                      — the lanes that settled u last level
//   Seed(q, bit)                  — source lane `bit` starts at q
//   Edge(u, x, negative, mask, t) — lanes `mask` extend their shortest
//                                   paths to u by the edge (u, x); records
//                                   them as arrivals in t, x's state
//   Leave(u)                      — u leaves the frontier
//   Settle(x, t)                  — t's arrivals settled x on this level and
//                                   make up its frontier lanes

// DPE / NNE: distances only; the frontier is one lane word per node.
struct VisitLanes {
  static constexpr bool kSigned = false;
  uint64_t* visit;

  uint64_t Visit(NodeId u) const { return visit[u]; }
  void Seed(NodeId q, uint64_t bit) { visit[q] |= bit; }
  void Edge(NodeId, NodeId, bool, uint64_t mask, NodeLanes* t) {
    t->arrive_pos |= mask;
  }
  void Leave(NodeId u) { visit[u] = 0; }
  void Settle(NodeId x, const NodeLanes& t) { visit[x] = t.arrive_pos; }
};

// SPA / SPO: existence of a positive / negative shortest path. The
// frontier keeps each lane's sign flags at the level it settled the node;
// `signs` accumulates them for every level.
struct SignLanes {
  static constexpr bool kSigned = true;
  uint64_t* visit_signs;  // frontier lanes: pos at 2x, neg at 2x + 1
  uint64_t* signs;        // settled lanes, same layout

  uint64_t Visit(NodeId u) const {
    return visit_signs[2 * size_t{u}] | visit_signs[2 * size_t{u} + 1];
  }
  void Seed(NodeId q, uint64_t bit) {  // the empty path is positive
    visit_signs[2 * size_t{q}] |= bit;
    signs[2 * size_t{q}] |= bit;
  }
  void Edge(NodeId u, NodeId, bool negative, uint64_t mask, NodeLanes* t) {
    uint64_t p = visit_signs[2 * size_t{u}] & mask;
    uint64_t m = visit_signs[2 * size_t{u} + 1] & mask;
    // A negative edge extends a positive path to a negative one and vice
    // versa.
    if (negative) std::swap(p, m);
    t->arrive_pos |= p;
    t->arrive_neg |= m;
  }
  void Leave(NodeId u) {
    visit_signs[2 * size_t{u}] = 0;
    visit_signs[2 * size_t{u} + 1] = 0;
  }
  void Settle(NodeId x, const NodeLanes& t) {
    visit_signs[2 * size_t{x}] = t.arrive_pos;
    visit_signs[2 * size_t{x} + 1] = t.arrive_neg;
    signs[2 * size_t{x}] |= t.arrive_pos;
    signs[2 * size_t{x} + 1] |= t.arrive_neg;
  }
};

// SPM: the counts N+ / N- of Algorithm 1, bit-sliced, over the plain
// frontier. A lane's count at x only grows on the level the lane settles x
// (edges carry lanes not yet in seen[x]), so reading u's planes under
// mask ⊆ visit[u] sees final counts.
struct CountLanes : VisitLanes {
  static constexpr bool kSigned = true;
  static constexpr uint32_t kPlanes = kMsBfsCountPlanes;
  static constexpr size_t kWords = 2 * kPlanes;
  uint64_t* counts;
  uint8_t* used;
  /// Lanes whose count carried out of the top plane somewhere.
  uint64_t overflow = 0;

  void Seed(NodeId q, uint64_t bit) {
    VisitLanes::Seed(q, bit);
    uint64_t* c = counts + size_t{q} * kWords;
    if (used[q] == 0) {
      c[0] = 0;
      c[1] = 0;
      used[q] = 1;
    }
    c[0] |= bit;  // N+ = 1: the empty path is positive
  }

  // x.N+ += u.N+ and x.N- += u.N- over the lanes in `mask` (crossed when
  // the edge is negative): a ripple-carry add over u's planes plus the
  // carry. Bits outside `mask` stay as they are, because neither the
  // addend nor the carries have any.
  void Edge(NodeId u, NodeId x, bool negative, uint64_t mask,
            NodeLanes* t) {
    if (mask == 0) return;
    t->arrive_pos |= mask;
    const uint64_t* a = counts + size_t{u} * kWords;
    uint64_t* b = counts + size_t{x} * kWords;
    const uint32_t nu = used[u];
    const uint32_t nx = used[x];
    const uint32_t to_pos = negative ? 1 : 0;
    uint64_t cp = 0, cn = 0;
    uint32_t k = 0;
    for (const uint32_t both = std::min(nu, nx); k < both; ++k) {
      const uint64_t ap = a[2 * k + to_pos] & mask;
      const uint64_t an = a[2 * k + (to_pos ^ 1)] & mask;
      const uint64_t bp = b[2 * k], bn = b[2 * k + 1];
      b[2 * k] = bp ^ ap ^ cp;
      b[2 * k + 1] = bn ^ an ^ cn;
      cp = (bp & ap) | (cp & (bp ^ ap));
      cn = (bn & an) | (cn & (bn ^ an));
    }
    for (; k < nu; ++k) {  // x has no plane k yet: it reads as 0
      const uint64_t ap = a[2 * k + to_pos] & mask;
      const uint64_t an = a[2 * k + (to_pos ^ 1)] & mask;
      b[2 * k] = ap ^ cp;
      b[2 * k + 1] = an ^ cn;
      cp &= ap;
      cn &= an;
    }
    for (; k < nx && (cp | cn) != 0; ++k) {
      const uint64_t bp = b[2 * k], bn = b[2 * k + 1];
      b[2 * k] = bp ^ cp;
      b[2 * k + 1] = bn ^ cn;
      cp &= bp;
      cn &= bn;
    }
    if ((cp | cn) != 0) {
      if (k == kPlanes) {
        overflow |= cp | cn;
      } else {
        b[2 * k] = cp;
        b[2 * k + 1] = cn;
        ++k;
      }
    }
    if (k > nx) used[x] = static_cast<uint8_t>(k);
  }

  // Lanes of x with N- > N+: an MSB-first bit-sliced compare.
  uint64_t NegativeMajority(NodeId x) const {
    const uint64_t* c = counts + size_t{x} * kWords;
    uint64_t greater = 0, equal = ~0ull;
    for (uint32_t k = used[x]; k-- > 0;) {
      const uint64_t p = c[2 * k], m = c[2 * k + 1];
      greater |= equal & m & ~p;
      equal &= ~(m ^ p);
    }
    return greater;
  }
};

// Runs the level-synchronous bit-parallel traversal shared by every
// relation, writing per-lane distances into rows[lane].dist as bits first
// set; `lanes` carries the relation's per-lane payload along the edges.
// Rows start at 1 byte per distance; a lane's row widens in place on the
// first level past 254 (or 65,534) that the lane reaches, so every row
// leaves at the narrowest width of its own values whatever its
// neighbouring lanes reach.
template <typename Lanes>
void Traverse(const SignedGraph& g, std::span<const NodeId> sources,
              NodeLanes* nodes, Lanes* lanes, std::vector<CompatRow>* rows) {
  const uint32_t n = g.num_nodes();
  const auto offsets = g.offsets();
  const auto targets = g.adjacency_targets();
  const auto sign_words = g.adjacency_sign_words();
  const uint64_t directed_edges = targets.size();
  const uint64_t full =
      sources.size() == 64 ? ~0ull : ((1ull << sources.size()) - 1);
  auto negative = [&](uint64_t e) {
    return Lanes::kSigned && ((sign_words[e >> 6] >> (e & 63)) & 1) != 0;
  };

  std::vector<NodeId> frontier, next_frontier, candidates;
  frontier.reserve(sources.size());
  uint64_t frontier_degree = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    const NodeId q = sources[i];
    const uint64_t bit = 1ull << i;
    if (lanes->Visit(q) == 0) {
      frontier.push_back(q);
      frontier_degree += g.Degree(q);
    }
    nodes[q].seen |= bit;
    lanes->Seed(q, bit);
    (*rows)[i].dist.Set(q, 0);
  }

  uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    candidates.clear();
    // Sparse frontiers push lane bits along their edges; dense frontiers
    // pull instead — one sequential sweep over the adjacency of every node
    // still missing lanes, skipping nodes all sources have settled. Either
    // way an edge carries only the lanes that have not yet reached its
    // target: for those it lies on a shortest path.
    const bool pull = frontier_degree * 4 >= directed_edges && n > frontier.size();
    if (!pull) {
      for (const NodeId u : frontier) {
        const uint64_t vu = lanes->Visit(u);
        for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
          const NodeId x = targets[e];
          NodeLanes& t = nodes[x];
          const uint64_t mask = vu & ~t.seen;
          if (mask == 0) continue;
          if ((t.arrive_pos | t.arrive_neg) == 0) candidates.push_back(x);
          lanes->Edge(u, x, negative(e), mask, &t);
        }
      }
    } else {
      for (NodeId x = 0; x < n; ++x) {
        const uint64_t open = ~nodes[x].seen & full;
        if (open == 0) continue;  // every lane settled x already
        // Arrivals gather in a local (registers) and are stored once.
        NodeLanes arrivals;
        for (uint64_t e = offsets[x]; e < offsets[x + 1]; ++e) {
          const NodeId u = targets[e];
          const uint64_t vu = lanes->Visit(u);
          if (vu == 0) continue;
          lanes->Edge(u, x, negative(e), vu & open, &arrivals);
        }
        if ((arrivals.arrive_pos | arrivals.arrive_neg) == 0) continue;
        nodes[x].arrive_pos = arrivals.arrive_pos;
        nodes[x].arrive_neg = arrivals.arrive_neg;
        candidates.push_back(x);
      }
    }
    // Propagation done; the old frontier's visit masks can go before the
    // settle pass writes the new ones (the sets may overlap).
    for (const NodeId u : frontier) lanes->Leave(u);
    next_frontier.clear();
    frontier_degree = 0;
    for (const NodeId x : candidates) {
      NodeLanes& t = nodes[x];
      const uint64_t fresh = t.arrive_pos | t.arrive_neg;
      lanes->Settle(x, t);
      t.arrive_pos = 0;
      t.arrive_neg = 0;
      t.seen |= fresh;
      next_frontier.push_back(x);
      frontier_degree += g.Degree(x);
      for (uint64_t m = fresh; m != 0; m &= m - 1) {
        (*rows)[static_cast<size_t>(std::countr_zero(m))].dist.Set(x, level);
      }
    }
    frontier.swap(next_frontier);
  }
}

// Sets rows[lane].comp[x] = 1 for every lane in lanes_of(x).
template <typename LanesOf>
void MarkCompatible(uint32_t n, LanesOf lanes_of,
                    std::vector<CompatRow>* rows) {
  for (NodeId x = 0; x < n; ++x) {
    for (uint64_t m = lanes_of(x); m != 0; m &= m - 1) {
      (*rows)[static_cast<size_t>(std::countr_zero(m))].comp[x] = 1;
    }
  }
}

}  // namespace

std::vector<CompatRow> ComputeCompatRowBlock(const SignedGraph& g,
                                             CompatKind kind,
                                             std::span<const NodeId> sources,
                                             MsBfsScratch* scratch) {
  TFSN_CHECK(MsBfsSupportsKind(kind));
  TFSN_CHECK(!sources.empty());
  TFSN_CHECK_LE(sources.size(), kMsBfsBatchSize);
  const uint32_t n = g.num_nodes();
  for (const NodeId q : sources) TFSN_CHECK_LT(q, n);

  MsBfsScratch local;
  MsBfsScratch* s = scratch != nullptr ? scratch : &local;
  if (s->buffers_ == nullptr) {
    s->buffers_ = std::make_unique<MsBfsScratch::Buffers>();
  }
  MsBfsScratch::Buffers& b = *s->buffers_;
  NodeLanes* nodes = b.nodes.Zeroed(n);

  const uint8_t comp_default = kind == CompatKind::kNNE ? 1 : 0;
  std::vector<CompatRow> rows(sources.size());
  for (CompatRow& row : rows) {
    row.comp.assign(n, comp_default);
    row.dist = RowDistances(n, kUnreachable);
  }

  // Project the settled lanes into per-row comp flags, matching the scalar
  // kernels bit-for-bit (row_kernels.cc).
  switch (kind) {
    case CompatKind::kSPA:
    case CompatKind::kSPO: {
      SignLanes lanes{b.visit_signs.Zeroed(2 * size_t{n}),
                      b.signs.Zeroed(2 * size_t{n})};
      const uint64_t* signs = lanes.signs;
      Traverse(g, sources, nodes, &lanes, &rows);
      if (kind == CompatKind::kSPA) {
        // All shortest paths positive: a positive one exists, none negative.
        MarkCompatible(
            n,
            [&](NodeId x) {
              return signs[2 * size_t{x}] & ~signs[2 * size_t{x} + 1];
            },
            &rows);
      } else {
        // At least one positive shortest path.
        MarkCompatible(
            n, [&](NodeId x) { return signs[2 * size_t{x}]; }, &rows);
      }
      break;
    }
    case CompatKind::kSPM: {
      CountLanes lanes;
      lanes.visit = b.visit.Zeroed(n);
      // Not cleared: a node's planes are written before they are read
      // (see CountLanes).
      lanes.counts = b.counts.Reserve(size_t{n} * CountLanes::kWords);
      lanes.used = b.planes_used.Zeroed(n);
      Traverse(g, sources, nodes, &lanes, &rows);
      // Majority: reached, and N- does not exceed N+.
      MarkCompatible(
          n,
          [&](NodeId x) { return nodes[x].seen & ~lanes.NegativeMajority(x); },
          &rows);
      // A lane whose count overflowed the planes holds wrong counts; the
      // scalar kernel recomputes it, exact up to its uint64 saturation.
      for (uint64_t m = lanes.overflow; m != 0; m &= m - 1) {
        const size_t i = static_cast<size_t>(std::countr_zero(m));
        rows[i] = ComputeSpmRow(g, RowKernelParams{}, sources[i]);
        ++s->overflow_lanes_;
      }
      break;
    }
    case CompatKind::kDPE:
    case CompatKind::kNNE: {
      VisitLanes lanes{b.visit.Zeroed(n)};
      Traverse(g, sources, nodes, &lanes, &rows);
      const uint8_t direct = kind == CompatKind::kDPE ? 1 : 0;
      const Sign sign =
          kind == CompatKind::kDPE ? Sign::kPositive : Sign::kNegative;
      for (size_t i = 0; i < sources.size(); ++i) {
        for (const Neighbor& nb : g.Neighbors(sources[i])) {
          if (nb.sign == sign) rows[i].comp[nb.to] = direct;
        }
      }
      break;
    }
    default:
      TFSN_CHECK(false);
  }
  // Reflexivity normalization (Section 2 axioms), as in FinishRow
  // (row_kernels.cc).
  for (size_t i = 0; i < sources.size(); ++i) {
    rows[i].comp[sources[i]] = 1;
    rows[i].dist.Set(sources[i], 0);
  }
  return rows;
}

}  // namespace tfsn
