// Fixed-size thread pool used by the phase-1 ILP to solve independent
// components in parallel (core/phase1_ilp.cc). Phase 2 does not use it: its
// shard workers are its only threads (core/shard_executor.h).

#ifndef CEXTEND_UTIL_THREAD_POOL_H_
#define CEXTEND_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace cextend {

/// Runs submitted tasks on `num_threads` workers. Destruction waits for all
/// pending tasks to finish.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until the queue is drained and all workers are idle.
  void WaitAll() EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only in the constructor
};

/// Runs `fn(i)` for i in [0, n) across `pool` (or inline when pool is null),
/// blocking until all iterations complete.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace cextend

#endif  // CEXTEND_UTIL_THREAD_POOL_H_
