#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace willow::util {
namespace {

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, ComputesDeterministicResult) {
  ThreadPool pool(4);
  std::vector<double> out(1000, 0.0);
  parallel_for(pool, out.size(),
               [&](std::size_t i) { out[i] = static_cast<double>(i) * 2.0; });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0);
}

TEST(ParallelForRanges, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);
  parallel_for_ranges(&pool, hits.size(),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) ++hits[i];
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForRanges, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  parallel_for_ranges(&pool, 0, [](std::size_t, std::size_t) { FAIL(); });
  parallel_for_ranges(nullptr, 0, [](std::size_t, std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelForRanges, NullPoolRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for_ranges(nullptr, 57, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 57u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForRanges, ReductionMatchesSerialBitExactly) {
  // The pattern the tick engine relies on: fill per-index slots in parallel,
  // reduce serially in index order.  Any pool size must give the serial
  // result bit for bit.
  const std::size_t n = 10000;
  auto f = [](std::size_t i) {
    return 1.0 / static_cast<double>(i + 1) +
           0.25 * static_cast<double>(i % 7);
  };
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = f(i);
  const double serial_sum =
      std::accumulate(serial.begin(), serial.end(), 0.0);

  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    std::vector<double> out(n, 0.0);
    parallel_for_ranges(&pool, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = f(i);
    });
    EXPECT_EQ(out, serial) << workers << " workers";
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0.0), serial_sum)
        << workers << " workers";
  }
}

TEST(ChunkPartition, IsAPureFunctionOfSizeAndPoolSize) {
  // The determinism contract: the chunking never depends on runtime state
  // (load, who claims what, thread count actually running), only on
  // (n, pool_size).  Same inputs, same partition — every call, every pool.
  for (std::size_t pool_size : {0u, 1u, 2u, 4u, 7u, 16u}) {
    for (std::size_t n : {0u, 1u, 5u, 16u, 17u, 1000u, 4096u, 99991u}) {
      const std::size_t chunks = ThreadPool::chunk_count(n, pool_size);
      EXPECT_EQ(chunks, ThreadPool::chunk_count(n, pool_size));
      if (n == 0) continue;
      ASSERT_GE(chunks, 1u);
      ASSERT_LE(chunks, n);
      // Chunks tile [0, n) contiguously without gaps or overlap.
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ThreadPool::chunk_bounds(n, chunks, c);
        EXPECT_EQ(begin, expect_begin) << "n=" << n << " c=" << c;
        EXPECT_GT(end, begin);
        expect_begin = end;
        // Pure: a second call gives the same bounds.
        EXPECT_EQ(ThreadPool::chunk_bounds(n, chunks, c),
                  std::make_pair(begin, end));
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(ChunkPartition, SamePartitionAcrossDistinctPoolsOfEqualSize) {
  // Two pools of the same size must hand the same (begin, end) ranges to
  // the body for the same n, independent of which threads execute them.
  auto record = [](ThreadPool& pool, std::size_t n) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    parallel_for_ranges(&pool, n, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  ThreadPool a(3), b(3);
  a.set_force_worker_dispatch(true);  // concurrent path even on 1-core hosts
  for (std::size_t n : {1u, 12u, 500u, 4097u}) {
    EXPECT_EQ(record(a, n), record(b, n)) << "n=" << n;
  }
}

TEST(ThreadPool, BatchDescriptorReuseAcrossManyRounds) {
  // run_batch reuses one descriptor slot + generation counter; hammer it
  // with back-to-back batches of varying size and verify exactly-once
  // coverage each round (a stale worker claiming into the wrong generation
  // would double-run or skip indices).
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  std::vector<std::atomic<int>> hits(5000);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + (round * 131) % hits.size();
    for (std::size_t i = 0; i < n; ++i) {
      hits[i].store(0, std::memory_order_relaxed);
    }
    pool.run_batch(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, SingleWorkerPoolRunsBatchInlineOnCaller) {
  // size() <= 1 pools never dispatch to workers: the caller runs every
  // chunk itself, so nested use from a worker cannot deadlock.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::size_t covered = 0;
  pool.run_batch(100, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered += end - begin;
  });
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, ForcedDispatchStillCoversEveryIndexOnce) {
  // set_force_worker_dispatch(true) takes the concurrent claim path even
  // where hardware_concurrency() == 1 would normally choose inline; the
  // result must be indistinguishable.
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  std::vector<std::atomic<int>> hits(2477);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForRanges, StressManyRoundsOfReductions) {
  // Hammer one pool with tick-loop-shaped work: many consecutive sharded
  // rounds, each a fill + fixed-order reduce, interleaved with a shared
  // atomic.  Exercises back-to-back batch generations under contention (the
  // TSan preset runs this).
  ThreadPool pool(4);
  const std::size_t n = 4096;
  std::vector<double> out(n);
  std::atomic<std::uint64_t> touched{0};
  for (int round = 1; round <= 100; ++round) {
    parallel_for_ranges(&pool, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * round;
      }
      touched.fetch_add(end - begin, std::memory_order_relaxed);
    });
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += out[i];
    const double expected =
        static_cast<double>(n - 1) * static_cast<double>(n) / 2.0 * round;
    ASSERT_DOUBLE_EQ(sum, expected) << "round " << round;
  }
  EXPECT_EQ(touched.load(), 100u * n);
}

}  // namespace
}  // namespace willow::util
