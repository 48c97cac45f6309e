#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

const Clock::time_point kEpoch = Clock::now();

}  // namespace

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, request, parent, 0);
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request, int32_t parent, uint32_t track) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.parent = parent;
  s.request = request;
  s.track = track;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, layer.c_str(), s.track,
                 s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<StageTime> SelfTimes(const std::vector<Span>& spans,
                                 int64_t window_start_ns,
                                 int64_t window_end_ns, double* uncovered_s) {
  // Sweep over span boundaries. At every instant the innermost open spans
  // (open spans with no open child) split the instant equally.
  struct Event {
    int64_t t;
    bool open;
    uint32_t depth;
    uint32_t span;
  };
  std::vector<uint32_t> depth(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    depth[i] = p < 0 ? 0 : depth[static_cast<size_t>(p)] + 1;
  }
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  std::map<std::string, StageTime> table;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t a = std::max(spans[i].start_ns, window_start_ns);
    const int64_t b = std::min(spans[i].end_ns, window_end_ns);
    if (b < a) continue;
    StageTime& row = table[spans[i].name];
    row.stage = spans[i].name;
    row.busy_s += (b - a) / 1e9;
    ++row.spans;
    if (b == a) continue;
    events.push_back({a, true, depth[i], static_cast<uint32_t>(i)});
    events.push_back({b, false, depth[i], static_cast<uint32_t>(i)});
  }
  // Closes before opens at equal times; parents open before and close
  // after their children.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.open != y.open) return !x.open;
    return x.open ? x.depth < y.depth : x.depth > y.depth;
  });

  std::vector<uint8_t> active(spans.size(), 0);
  std::vector<uint32_t> open_children(spans.size(), 0);
  // Whether the span was opened inside its (then open) parent.
  std::vector<uint8_t> nested(spans.size(), 0);
  std::map<const char*, uint32_t> leaves_by_stage;  // innermost open spans
  uint32_t leaves = 0;
  auto add_leaf = [&](uint32_t s, int delta) {
    leaves_by_stage[spans[s].name] += static_cast<uint32_t>(delta);
    leaves += static_cast<uint32_t>(delta);
  };
  double uncovered = 0;
  int64_t last = window_start_ns;
  for (const Event& e : events) {
    const double dt = (e.t - last) / 1e9;
    if (dt > 0) {
      if (leaves == 0) {
        uncovered += dt;
      } else {
        for (const auto& [name, count] : leaves_by_stage) {
          if (count > 0) table[name].self_s += dt * count / leaves;
        }
      }
    }
    last = e.t;
    const int32_t p = spans[e.span].parent;
    const bool parent_open = p >= 0 && active[static_cast<size_t>(p)];
    if (e.open) {
      active[e.span] = 1;
      nested[e.span] = parent_open;
      if (parent_open) {
        if (open_children[static_cast<size_t>(p)]++ == 0) {
          add_leaf(static_cast<uint32_t>(p), -1);
        }
      }
      add_leaf(e.span, +1);
    } else {
      if (!active[e.span]) continue;
      active[e.span] = 0;
      if (open_children[e.span] == 0) add_leaf(e.span, -1);
      if (nested[e.span] && parent_open) {
        if (--open_children[static_cast<size_t>(p)] == 0) {
          add_leaf(static_cast<uint32_t>(p), +1);
        }
      }
    }
  }
  uncovered += std::max<int64_t>(0, window_end_ns - last) / 1e9;
  if (uncovered_s != nullptr) *uncovered_s = uncovered;

  std::vector<StageTime> out;
  out.reserve(table.size());
  for (auto& [name, row] : table) out.push_back(row);
  return out;
}

uint32_t TrackAllocator::Take(int64_t start_ns, int64_t end_ns) {
  for (size_t i = 0; i < free_at_.size(); ++i) {
    if (free_at_[i] <= start_ns) {
      free_at_[i] = end_ns;
      return static_cast<uint32_t>(i + 1);
    }
  }
  free_at_.push_back(end_ns);
  return static_cast<uint32_t>(free_at_.size());
}

}  // namespace perfbench
