// Wall-clock timing helpers used for the runtime-breakdown experiments
// (paper Figures 11 and 13).

#ifndef CEXTEND_UTIL_TIMER_H_
#define CEXTEND_UTIL_TIMER_H_

#include <chrono>

namespace cextend {

/// Monotonic stopwatch measuring elapsed seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Adds the scope's wall time to an accumulator on destruction. Used to
/// attribute time to the stages reported in the paper's Figure 13.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { *accumulator_ += watch_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* accumulator_;
  Stopwatch watch_;
};

}  // namespace cextend

#endif  // CEXTEND_UTIL_TIMER_H_
