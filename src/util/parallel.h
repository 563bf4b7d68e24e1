// The one way this project starts threads: the phase-1 ILP's component
// solves (core/phase1_ilp.cc) and phase 2's shard workers
// (core/shard_executor.cc) both go through RunWorkers. The caller is always
// one of the workers, so `n` workers start `n - 1` threads.

#ifndef CEXTEND_UTIL_PARALLEL_H_
#define CEXTEND_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace cextend {

/// Runs `worker` on the calling thread plus `n - 1` new threads and returns
/// once every copy has returned. With `n <= 1` it runs `worker` inline.
void RunWorkers(size_t n, const std::function<void()>& worker);

/// Runs `fn(i)` once for every i in [0, count) on
/// min(num_threads, count) workers (the caller included), handing out
/// indices from a shared counter. Returns once every call has returned.
void ParallelFor(size_t num_threads, size_t count,
                 const std::function<void(size_t)>& fn);

}  // namespace cextend

#endif  // CEXTEND_UTIL_PARALLEL_H_
