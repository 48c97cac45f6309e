// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library (nothing inside the library is instrumented). Each span has a
// name ("<layer>.<stage>"), start and end on the steady clock, the index
// of the span that caused it, a request id shared by every span of one
// request, and a display track. Spans stay in memory and are written out
// once, at exit, as Chrome trace-event JSON (Perfetto and chrome://tracing
// open it as is).
//
// The recorder is single-threaded: the benchmark records from its driver
// thread only. Spans of work that ran on server threads are added after
// the fact from the timings the server reports (Add()).

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch (process start, roughly).
int64_t NowNs();
/// Converts a steady-clock time point to NowNs() units.
int64_t ToNs(Clock::time_point t);

struct Span {
  const char* name = "";  // string literal: "<layer>.<stage>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's spans, -1 = root
  uint64_t request = 0;
  uint32_t track = 0;  // 0 = the driver thread
};

class Tracer {
 public:
  /// Opens a span now; returns its id.
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1);
  /// Closes span `id` now.
  void End(int32_t id);
  /// Adds a span with known bounds; returns its id.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request, int32_t parent, uint32_t track);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span on the driver thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int32_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// One row of the per-stage self-time table.
struct StageTime {
  std::string stage;
  /// Wall-clock share: every instant of the window is split equally
  /// among the innermost spans open at that instant (a span's self time
  /// when spans do not overlap; concurrent spans share the instant).
  double self_s = 0;
  /// Sum of span durations (what the stage kept busy, overlaps counted).
  double busy_s = 0;
  uint64_t spans = 0;
};

/// Self-time table over [window_start_ns, window_end_ns] (spans are
/// clipped to it). The stages' self times sum to the window's wall clock
/// minus `*uncovered_s`, the time no span was open.
std::vector<StageTime> SelfTimes(const std::vector<Span>& spans,
                                 int64_t window_start_ns,
                                 int64_t window_end_ns, double* uncovered_s);

/// Hands out display tracks (1, 2, ...) so that the spans placed on one
/// track never overlap; concurrent requests then render side by side.
class TrackAllocator {
 public:
  uint32_t Take(int64_t start_ns, int64_t end_ns);

 private:
  std::vector<int64_t> free_at_;  // per track: end of its last span
};

}  // namespace perfbench
