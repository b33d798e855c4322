// ThreadSanitizer stress for the batch-descriptor engine (ctest -L tsan).
//
// Hammers the races the design has to be proof against: descriptor reuse
// across generations (a slow worker must never claim into the next batch),
// and the producer tearing down a batch's body while workers finish.  Runs
// with forced worker dispatch so the concurrent claim path is exercised even
// on single-core CI hosts, where run_batch would otherwise fall back to
// inline execution.
//
// Functional coverage lives in thread_pool_test.cc; this file exists to
// give TSan long, contended schedules, so iteration counts are high and
// assertions are cheap.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace willow::util {
namespace {

TEST(ThreadPoolStress, RapidBatchTurnoverAcrossGenerations) {
  // Many short batches back to back: the window where a worker holds a
  // stale descriptor snapshot is widest when batches retire quickly.
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t expected = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = 1 + round % 97;
    expected += n;
    pool.run_batch(n, [&](std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolStress, BodyLifetimeEndsWithTheBatch) {
  // Each round's body captures round-local state by reference and goes out
  // of scope right after run_batch returns; any post-return execution of
  // the body is a use-after-free TSan/ASan will flag.
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  for (int round = 0; round < 1000; ++round) {
    std::vector<int> local(256, 0);
    pool.run_batch(local.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) local[i] = round;
    });
    ASSERT_EQ(local.front(), round);
    ASSERT_EQ(local.back(), round);
  }
}

TEST(ThreadPoolStress, TickShapedFanOutsOverSharedState) {
  // The simulation's shape: consecutive fused fan-outs writing disjoint
  // per-index slots of shared vectors, serial reduction between rounds.
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  const std::size_t n = 8192;
  std::vector<double> a(n), b(n);
  double checksum = 0.0;
  for (int round = 1; round <= 300; ++round) {
    pool.run_batch(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        a[i] = static_cast<double>(i % 13) * round;
      }
    });
    pool.run_batch(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) b[i] = a[i] * 0.5;
    });
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += b[i];
    checksum = sum;
  }
  EXPECT_GT(checksum, 0.0);
}

}  // namespace
}  // namespace willow::util
