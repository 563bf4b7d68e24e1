#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::CountProcessThreads;

/// Records the distinct threads that call Add().
class ThreadSet {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.insert(std::this_thread::get_id());
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.size();
  }
  bool Contains(std::thread::id id) {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.count(id) != 0;
  }

 private:
  std::mutex mu_;
  std::set<std::thread::id> ids_;
};

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}, size_t{16}}) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      ThreadSet threads;
      ParallelFor(num_threads, count, [&](size_t i) {
        hits[i].fetch_add(1);
        threads.Add();
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << ", num_threads " << num_threads
            << ", count " << count;
      }
      // Never more workers than min(num_threads, count), the caller counted.
      EXPECT_LE(threads.size(),
                std::max<size_t>(1, std::min(num_threads, count)))
          << "num_threads " << num_threads << ", count " << count;
    }
  }
}

TEST(ParallelForTest, OneWorkerRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{8}}) {
    const size_t count = num_threads == 8 ? 1 : 5;
    std::vector<size_t> order;
    ParallelFor(num_threads, count, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), count);
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(RunWorkersTest, RunsNConcurrentCopiesOneOnTheCaller) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
    const size_t copies = std::max<size_t>(1, n);
    // Every copy waits for all the others, so the call only returns if the
    // copies run concurrently, each on its own thread.
    std::latch all_started(static_cast<std::ptrdiff_t>(copies));
    std::atomic<size_t> runs{0};
    ThreadSet threads;
    RunWorkers(n, [&] {
      runs.fetch_add(1);
      threads.Add();
      all_started.arrive_and_wait();
    });
    EXPECT_EQ(runs.load(), copies) << "n " << n;
    EXPECT_EQ(threads.size(), copies) << "n " << n;
    EXPECT_TRUE(threads.Contains(std::this_thread::get_id())) << "n " << n;
  }
}

TEST(ParallelForTest, StartsNoMoreThreadsThanIndices) {
  // With 8 threads allowed but 2 indices, at most one thread is started on
  // top of the caller; a pool sized by num_threads alone would start 8.
  const size_t baseline = CountProcessThreads();
  if (baseline == 0) GTEST_SKIP() << "no /proc/self/task";
  std::atomic<size_t> max_threads{0};
  ParallelFor(8, 2, [&](size_t) {
    const size_t now = CountProcessThreads();
    size_t seen = max_threads.load();
    while (now > seen && !max_threads.compare_exchange_weak(seen, now)) {
    }
  });
  EXPECT_GE(max_threads.load(), baseline);
  EXPECT_LE(max_threads.load(), baseline + 1);
}

}  // namespace
}  // namespace cextend
