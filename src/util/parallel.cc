#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace cextend {

void RunWorkers(size_t n, const std::function<void()>& worker) {
  std::vector<std::thread> threads;
  if (n > 1) threads.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

void ParallelFor(size_t num_threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  RunWorkers(std::min(num_threads, count), [&] {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      fn(i);
    }
  });
}

}  // namespace cextend
