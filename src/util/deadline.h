// Cooperative deadlines and cancellation for long-running solves.
//
// The solver has no preemption points: every stage is a plain loop (B&B node
// pops, simplex pivots, per-partition coloring, repair probes). `RunControl`
// is threaded through the option structs of those stages and polled at coarse
// loop boundaries, so an expired `Deadline` or a flipped `CancelToken`
// surfaces as `Status::DeadlineExceeded` / `Status::Cancelled` within one
// chunk of work rather than hanging the process. Checks are monotonic-clock
// based and lock-free; polling them in a hot loop costs one atomic load (for
// the token) plus one steady_clock read (for the deadline).

#ifndef CEXTEND_UTIL_DEADLINE_H_
#define CEXTEND_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace cextend {

/// A monotonic point in time after which work should stop. Default
/// constructed deadlines are infinite (never expire); value-semantic and
/// cheap to copy into per-stage option structs.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite deadline: IsExpired() is always false.
  Deadline() = default;

  /// Expires `millis` from now (clamped at 0).
  static Deadline AfterMillis(int64_t millis) {
    if (millis < 0) millis = 0;
    return Deadline(Clock::now() + std::chrono::milliseconds(millis));
  }

  bool is_infinite() const { return !has_deadline_; }

  bool IsExpired() const {
    return has_deadline_ && Clock::now() >= time_point_;
  }

  /// Milliseconds until expiry; negative when already expired. Only
  /// meaningful for finite deadlines.
  int64_t RemainingMillis() const {
    if (!has_deadline_) return INT64_MAX;
    return std::chrono::duration_cast<std::chrono::milliseconds>(time_point_ -
                                                                 Clock::now())
        .count();
  }

 private:
  explicit Deadline(Clock::time_point tp)
      : has_deadline_(true), time_point_(tp) {}

  bool has_deadline_ = false;
  Clock::time_point time_point_{};
};

/// A thread-safe cancellation flag. The owner keeps the token alive for the
/// duration of the solve and calls Cancel() from any thread; solver stages
/// observe it through the `RunControl` they were handed. Tokens are
/// referenced by pointer (they are not copyable) so one token can fan out to
/// every stage of a solve.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The pair (deadline, cancel token) carried by option structs. Both members
/// are optional: a default RunControl never interrupts anything, so stages
/// can poll it unconditionally.
struct RunControl {
  Deadline deadline;
  /// Not owned; must outlive every stage polling this control. May be null.
  const CancelToken* cancel = nullptr;

  bool CanInterrupt() const {
    return cancel != nullptr || !deadline.is_infinite();
  }

  /// OK while work may continue; Cancelled / DeadlineExceeded otherwise.
  /// Cancellation wins over expiry when both hold (the caller asked first).
  Status Check() const;
};

}  // namespace cextend

#endif  // CEXTEND_UTIL_DEADLINE_H_
