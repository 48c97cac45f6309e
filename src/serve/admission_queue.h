// Bounded MPMC admission queue with backpressure, priority order and
// clean shutdown.
//
// The serving layer's front door: producers (workload generators, the CLI,
// eventually an RPC handler) push TeamRequests, consumers (the worker
// pool) pop them. The queue is a plain mutex + two condition variables
// over a binary heap — at team-formation request rates (each request
// costs milliseconds of formation work) the lock is never the
// bottleneck, and the simple structure makes the shutdown semantics easy
// to get right:
//
//   * Bounded: Push blocks while the queue is full (backpressure into the
//     caller), TryPush refuses with ResourceExhausted instead — the
//     open-loop workload generator uses TryPush so a saturated server
//     drops rather than stalls arrivals. Refusals are typed tfsn::Status
//     values (queue-full vs shutting-down), so callers can tell
//     backpressure apart from shutdown and attach retry-after hints.
//   * Close(): producers fail fast (Push/TryPush return Unavailable),
//     consumers drain every item already admitted, then Pop returns
//     false. Nothing admitted is ever lost — the server relies on this to
//     fulfill every promise on shutdown.
//   * Ordered: Pop returns the item that the `Before` comparator ranks
//     first; push order (the total order of push completions under the
//     lock) breaks ties. The default comparator ranks every item equal,
//     so the default queue is FIFO. The server instantiates it with
//     "earlier deadline first" (serve::EarlierDeadline), which serves
//     deadline-free traffic — all tied at +infinity — in FIFO order.
//
// All member functions are safe to call from any number of threads. The
// locking discipline is compile-time checked: items_/closed_ carry
// TFSN_GUARDED_BY(mu_), and every entry point declares TFSN_EXCLUDES(mu_)
// so a call from a context already holding the queue lock (self-deadlock)
// fails to build under Clang's thread safety analysis.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace tfsn::serve {

/// The default AdmissionQueue order: no item outranks another, so push
/// order alone decides (FIFO).
struct PushOrder {
  template <typename T>
  bool operator()(const T&, const T&) const {
    return false;
  }
};

/// `Before(a, b)` is true when `a` must pop before `b` (a strict weak
/// order).
template <typename T, typename Before = PushOrder>
class AdmissionQueue {
 public:
  /// `capacity` must be >= 1.
  explicit AdmissionQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Blocks while the queue is full; fails (item dropped) with
  /// Unavailable iff the queue was closed before space opened up.
  Status Push(T item) TFSN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(&mu_);
    if (closed_) return Status::Unavailable("admission queue closed");
    PushLocked(std::move(item));
    lock.Unlock();
    not_empty_.NotifyOne();
    return Status::OK();
  }

  /// Non-blocking admission: on success moves from *item; when full
  /// (ResourceExhausted) or closed (Unavailable) leaves *item untouched.
  Status TryPush(T* item) TFSN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_) return Status::Unavailable("admission queue closed");
      if (items_.size() >= capacity_) {
        return Status::ResourceExhausted("admission queue full");
      }
      PushLocked(std::move(*item));
    }
    not_empty_.NotifyOne();
    return Status::OK();
  }

  /// Blocks while the queue is empty; returns false iff the queue is
  /// closed AND fully drained (every admitted item is popped first).
  bool Pop(T* out) TFSN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(&mu_);
    if (items_.empty()) return false;  // closed and drained
    PopLocked(out);
    lock.Unlock();
    not_full_.NotifyOne();
    return true;
  }

  /// Non-blocking pop; false when currently empty (closed or not).
  bool TryPop(T* out) TFSN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (items_.empty()) return false;
      PopLocked(out);
    }
    not_full_.NotifyAll();
    return true;
  }

  /// Closes admission: subsequent and blocked pushes fail, pops drain the
  /// remaining items then fail. Idempotent.
  void Close() TFSN_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t size() const TFSN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const TFSN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

 private:
  /// An item with its push sequence number, the tie-break.
  struct Slot {
    uint64_t seq;
    T item;
  };

  /// Heap order: true when `a` pops after `b` (std heaps keep the
  /// greatest element on top).
  struct PopsLater {
    bool operator()(const Slot& a, const Slot& b) const {
      if (Before{}(a.item, b.item)) return false;
      if (Before{}(b.item, a.item)) return true;
      return a.seq > b.seq;
    }
  };

  void PushLocked(T item) TFSN_REQUIRES(mu_) {
    items_.push_back(Slot{next_seq_++, std::move(item)});
    std::push_heap(items_.begin(), items_.end(), PopsLater{});
  }

  void PopLocked(T* out) TFSN_REQUIRES(mu_) {
    std::pop_heap(items_.begin(), items_.end(), PopsLater{});
    *out = std::move(items_.back().item);
    items_.pop_back();
  }

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::vector<Slot> items_ TFSN_GUARDED_BY(mu_);
  uint64_t next_seq_ TFSN_GUARDED_BY(mu_) = 0;
  bool closed_ TFSN_GUARDED_BY(mu_) = false;
};

}  // namespace tfsn::serve
