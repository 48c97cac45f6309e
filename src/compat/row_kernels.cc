#include "src/compat/row_kernels.h"

#include <algorithm>
#include <cctype>
#include <ostream>

#include "src/compat/signed_bfs.h"
#include "src/util/logging.h"

namespace tfsn {

const char* CompatKindName(CompatKind kind) {
  switch (kind) {
    case CompatKind::kDPE: return "DPE";
    case CompatKind::kSPA: return "SPA";
    case CompatKind::kSPM: return "SPM";
    case CompatKind::kSPO: return "SPO";
    case CompatKind::kSBPH: return "SBPH";
    case CompatKind::kSBP: return "SBP";
    case CompatKind::kNNE: return "NNE";
  }
  return "?";
}

bool ParseCompatKind(const std::string& name, CompatKind* out) {
  std::string upper;
  for (char c : name) upper += static_cast<char>(std::toupper(c));
  for (CompatKind kind : AllCompatKinds()) {
    if (upper == CompatKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

RowDistances::RowDistances(size_t n, uint32_t value)
    : size_(n), width_(value == kUnreachable ? 1 : WidthFor(value)) {
  if (value == kUnreachable) {
    bytes_.assign(n, 0xFF);  // the 1-byte sentinel
    return;
  }
  bytes_.resize(n * width_);
  for (size_t i = 0; i < n; ++i) Set(i, value);
}

RowDistances::RowDistances(std::span<const uint32_t> dense)
    : size_(dense.size()) {
  uint32_t max_finite = 0;
  for (const uint32_t d : dense) {
    if (d != kUnreachable) max_finite = std::max(max_finite, d);
  }
  width_ = WidthFor(max_finite);
  bytes_.resize(size_ * width_);
  for (size_t i = 0; i < size_; ++i) Set(i, dense[i]);
}

namespace {

template <typename T>
void GatherAs(const uint8_t* base, std::span<const NodeId> index,
              uint32_t* out) {
  for (size_t j = 0; j < index.size(); ++j) {
    T v;
    std::memcpy(&v, base + size_t{index[j]} * sizeof(T), sizeof(T));
    out[j] = v == static_cast<T>(~T{0}) ? kUnreachable : v;
  }
}

}  // namespace

void RowDistances::Gather(std::span<const NodeId> index,
                          uint32_t* out) const {
  switch (width_) {
    case 1: GatherAs<uint8_t>(bytes_.data(), index, out); break;
    case 2: GatherAs<uint16_t>(bytes_.data(), index, out); break;
    default: GatherAs<uint32_t>(bytes_.data(), index, out); break;
  }
}

uint32_t RowDistances::MaxFinite() const {
  uint32_t max_finite = 0;
  for (size_t i = 0; i < size_; ++i) {
    const uint32_t d = (*this)[i];
    if (d != kUnreachable) max_finite = std::max(max_finite, d);
  }
  return max_finite;
}

std::vector<uint32_t> RowDistances::ToVector() const {
  std::vector<uint32_t> out(size_);
  for (size_t i = 0; i < size_; ++i) out[i] = (*this)[i];
  return out;
}

void RowDistances::Widen(uint32_t width) {
  RowDistances wider;
  wider.size_ = size_;
  wider.width_ = width;
  wider.bytes_.resize(size_ * width);
  for (size_t i = 0; i < size_; ++i) wider.Set(i, (*this)[i]);
  *this = std::move(wider);
}

bool operator==(const RowDistances& a, const RowDistances& b) {
  if (a.size_ != b.size_) return false;
  if (a.width_ == b.width_) return a.bytes_ == b.bytes_;
  for (size_t i = 0; i < a.size_; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

void PrintTo(const RowDistances& dist, std::ostream* os) {
  *os << "{width " << dist.width() << ":";
  for (size_t i = 0; i < dist.size(); ++i) {
    if (dist[i] == kUnreachable) {
      *os << " inf";
    } else {
      *os << " " << dist[i];
    }
  }
  *os << "}";
}

std::vector<CompatKind> AllCompatKinds() {
  return {CompatKind::kDPE,  CompatKind::kSPA, CompatKind::kSPM,
          CompatKind::kSPO,  CompatKind::kSBPH, CompatKind::kSBP,
          CompatKind::kNNE};
}

namespace {

// Assembles a kernel's row from its dense outputs, with reflexivity
// normalized (Section 2 axioms): the distances enter the store only once
// final, so the store takes the narrowest width of the row's values.
CompatRow FinishRow(std::vector<uint8_t> comp, std::vector<uint32_t> dist,
                    NodeId q, bool saturated = false) {
  comp[q] = 1;
  dist[q] = 0;
  CompatRow row;
  row.comp = std::move(comp);
  row.dist = RowDistances(dist);
  row.saturated = saturated;
  return row;
}

}  // namespace

CompatRow ComputeDpeRow(const SignedGraph& g, const RowKernelParams&,
                        NodeId q) {
  std::vector<uint8_t> comp(g.num_nodes(), 0);
  for (const Neighbor& nb : g.Neighbors(q)) {
    if (nb.sign == Sign::kPositive) comp[nb.to] = 1;
  }
  return FinishRow(std::move(comp), BfsDistances(g, q), q);
}

CompatRow ComputeNneRow(const SignedGraph& g, const RowKernelParams&,
                        NodeId q) {
  std::vector<uint8_t> comp(g.num_nodes(), 1);
  for (const Neighbor& nb : g.Neighbors(q)) {
    if (nb.sign == Sign::kNegative) comp[nb.to] = 0;
  }
  return FinishRow(std::move(comp), BfsDistances(g, q), q);
}

namespace {

// SPA / SPM / SPO share Algorithm 1 counts and differ only in the
// per-target predicate.
template <typename Pred>
CompatRow SpRow(const SignedGraph& g, NodeId q, Pred pred) {
  SignedBfsResult r = SignedShortestPathCount(g, q);
  std::vector<uint8_t> comp(g.num_nodes(), 0);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (r.dist[x] == kUnreachable) continue;
    comp[x] = pred(r.num_pos[x], r.num_neg[x]);
  }
  return FinishRow(std::move(comp), std::move(r.dist), q, r.saturated);
}

}  // namespace

CompatRow ComputeSpaRow(const SignedGraph& g, const RowKernelParams&,
                        NodeId q) {
  return SpRow(g, q,
               [](uint64_t pos, uint64_t neg) { return pos > 0 && neg == 0; });
}

CompatRow ComputeSpmRow(const SignedGraph& g, const RowKernelParams&,
                        NodeId q) {
  return SpRow(g, q, [](uint64_t pos, uint64_t neg) { return pos >= neg; });
}

CompatRow ComputeSpoRow(const SignedGraph& g, const RowKernelParams&,
                        NodeId q) {
  return SpRow(g, q, [](uint64_t pos, uint64_t) { return pos > 0; });
}

CompatRow ComputeThresholdRow(const SignedGraph& g, const RowKernelParams& p,
                              NodeId q) {
  const double theta = p.threshold_theta;
  TFSN_CHECK(theta >= 0.0 && theta <= 1.0);
  return SpRow(g, q, [theta](uint64_t pos, uint64_t neg) {
    double total = static_cast<double>(pos) + static_cast<double>(neg);
    if (total == 0.0) return false;
    double score = static_cast<double>(pos) / total;
    // θ == 0 still requires *some* positive path (score > 0) so that the
    // negative-edge incompatibility axiom holds.
    return theta > 0.0 ? score >= theta : score > 0.0;
  });
}

CompatRow ComputeSbphRow(const SignedGraph& g, const RowKernelParams& p,
                         NodeId q) {
  SbphResult r = SbphFromSource(g, q, p.sbph_max_depth);
  std::vector<uint8_t> comp(g.num_nodes(), 0);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    comp[x] = r.pos_dist[x] != kUnreachable;
  }
  return FinishRow(std::move(comp), std::move(r.pos_dist), q);
}

CompatRow ComputeSbpRow(const SignedGraph& g, const RowKernelParams& p,
                        NodeId q) {
  // The exact engine keeps per-instance scratch; one engine per row keeps
  // the kernel stateless while amortizing the scratch over the n targets.
  SbpExactSearch search(g, p.sbp);
  const uint32_t n = g.num_nodes();
  std::vector<uint8_t> comp(n, 0);
  std::vector<uint32_t> dist(n, kUnreachable);
  for (NodeId x = 0; x < n; ++x) {
    if (x == q) continue;
    SbpPairResult r = search.ShortestBalancedPath(q, x, Sign::kPositive);
    if (r.length) {
      comp[x] = 1;
      dist[x] = *r.length;
    }
  }
  return FinishRow(std::move(comp), std::move(dist), q);
}

RowKernelFn KernelForKind(CompatKind kind) {
  switch (kind) {
    case CompatKind::kDPE: return &ComputeDpeRow;
    case CompatKind::kSPA: return &ComputeSpaRow;
    case CompatKind::kSPM: return &ComputeSpmRow;
    case CompatKind::kSPO: return &ComputeSpoRow;
    case CompatKind::kSBPH: return &ComputeSbphRow;
    case CompatKind::kSBP: return &ComputeSbpRow;
    case CompatKind::kNNE: return &ComputeNneRow;
  }
  TFSN_CHECK(false);
  return nullptr;
}

CompatRow ComputeCompatRow(const SignedGraph& g, CompatKind kind,
                           const RowKernelParams& params, NodeId q) {
  return KernelForKind(kind)(g, params, q);
}

}  // namespace tfsn
