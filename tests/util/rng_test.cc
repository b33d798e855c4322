#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace willow::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 9.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 9.0);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(2, 5);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 5);
    saw_lo |= x == 2;
    saw_hi |= x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PoissonMeanApproximatesLambda) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(6.5));
  EXPECT_NEAR(s.mean(), 6.5, 0.15);
}

TEST(Rng, PoissonVarianceApproximatesLambda) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(4.0));
  EXPECT_NEAR(s.variance(), 4.0, 0.3);
}

TEST(Rng, PoissonZeroAndNegativeMeanIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-3.0), 0);
}

TEST(Rng, GaussianZeroStddevIsZero) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.gaussian(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.gaussian(-1.0), 0.0);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(2.0));
  EXPECT_NEAR(s.mean(), 0.0, 0.06);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.12);
}

TEST(Rng, ChanceProbabilityApproximatesP) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(29);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.index(5)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The fork consumed state: parent continues, child is distinct.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == child.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, TickStreamsMatchTickStream) {
  for (std::uint64_t tick : {0ull, 1ull, 977ull}) {
    const TickStreams streams(42, tick);
    for (std::uint64_t server = 0; server < 50; ++server) {
      for (std::uint64_t phase = 1; phase <= 7; ++phase) {
        EXPECT_EQ(streams(server, phase).engine(),
                  tick_stream(42, tick, server, phase).engine());
      }
    }
  }
}

// Many workers drawing Poisson means >= 12 at once: the rejection branch
// calls lgamma_r, so nothing writes glibc's signgam (scripts/tsan.sh runs
// this under ThreadSanitizer).  The parallel draws equal a serial run.
TEST(Rng, PoissonDrawsAreReentrant) {
  constexpr std::size_t kItems = 4096;
  const double means[] = {12.0, 50.0, 1e3};
  const auto draw_all = [&](ThreadPool* pool) {
    std::vector<int> out(kItems);
    parallel_for_ranges(pool, kItems, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        auto rng = tick_stream(7, 3, i, stream_phase::kDemand);
        out[i] = rng.poisson(means[i % 3]) + rng.poisson(means[(i + 1) % 3]);
      }
    });
    return out;
  };
  ThreadPool pool(4);
  pool.set_force_worker_dispatch(true);
  EXPECT_EQ(draw_all(&pool), draw_all(nullptr));
}

#if defined(__GLIBCXX__)
// Bitwise equivalence with the libstdc++ distributions the samplers replace:
// every draw returns the same bits and leaves the engine at the same
// position as the std distribution run on a twin engine.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// An engine that returns one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() const { return word; }
  std::uint64_t word;
};

double std_canonical(std::uint64_t u) {
  FixedWord w{u};
  return std::generate_canonical<double, 53>(w);
}

TEST(RngExactness, CanonicalMatchesGenerateCanonical) {
  const std::uint64_t top = ~std::uint64_t{0};
  const std::uint64_t edges[] = {
      0, 1, 3, (1ull << 53) + 1, (1ull << 54) + 2, (1ull << 54) + 6,
      (1ull << 63) - 1, 1ull << 63, (1ull << 63) + 1, top,
      // Words that round up to 2^64 (the clamp), and their neighbours.
      top - 1, top - 1023, top - 1024, top - 1025, top - 2047, top - 2048,
      top - 2049};
  for (const std::uint64_t u : edges) {
    EXPECT_EQ(bits(canonical(u)), bits(std_canonical(u))) << "word " << u;
  }
  EXPECT_EQ(canonical(top), std::nextafter(1.0, 0.0));
  SplitMix64Engine words(2024);
  std::size_t mismatches = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    const std::uint64_t u = words();
    mismatches += bits(canonical(u)) != bits(std_canonical(u)) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Runs `draw(rng, param)` and `ref(engine, param)` side by side over many
/// seeds and parameters; returns the number of value or engine mismatches.
template <typename Engine, typename Draw, typename Ref>
std::size_t count_mismatches(const std::vector<double>& params, int seeds,
                             int draws_per_param, Draw draw, Ref ref) {
  std::size_t mismatches = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    BasicRng<Engine> rng(static_cast<std::uint64_t>(seed) * 7919);
    Engine twin(static_cast<std::uint64_t>(seed) * 7919);
    for (const double param : params) {
      for (int k = 0; k < draws_per_param; ++k) {
        const auto got = draw(rng, param);
        const auto want = ref(twin, param);
        if (bits(static_cast<double>(got)) !=
                bits(static_cast<double>(want)) ||
            !(rng.engine() == twin)) {
          ADD_FAILURE() << "param " << param << " seed " << seed << ": got "
                        << got << ", std gives " << want;
          ++mismatches;
          twin = rng.engine();  // resynchronize; keep counting
        }
      }
    }
  }
  return mismatches;
}

std::vector<double> log_grid(double lo, double hi, int points) {
  std::vector<double> out;
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    out.push_back(lo * std::pow(hi / lo, t));
  }
  return out;
}

template <typename Engine>
void expect_scalar_samplers_exact() {
  const std::vector<double> probabilities = {0.0, 1e-9, 0.002, 0.05, 0.3,
                                             0.5, 0.7,  0.999, 1.0};
  EXPECT_EQ(count_mismatches<Engine>(
                probabilities, 100, 50,
                [](BasicRng<Engine>& r, double p) { return r.chance(p); },
                [](Engine& e, double p) {
                  return std::bernoulli_distribution(p)(e);
                }),
            0u);
  const std::vector<double> widths = {1e-6, 0.5, 1.0, 3.0, 100.0, 1e9};
  EXPECT_EQ(count_mismatches<Engine>(
                widths, 100, 50,
                [](BasicRng<Engine>& r, double w) {
                  return r.uniform(-0.3 * w, w);
                },
                [](Engine& e, double w) {
                  return std::uniform_real_distribution<double>(-0.3 * w,
                                                                w)(e);
                }),
            0u);
  EXPECT_EQ(count_mismatches<Engine>(
                log_grid(1e-3, 1e4, 40), 100, 20,
                [](BasicRng<Engine>& r, double mean) {
                  return r.exponential(mean);
                },
                [](Engine& e, double mean) {
                  return std::exponential_distribution<double>(1.0 / mean)(e);
                }),
            0u);
}

template <typename Engine>
void expect_poisson_exact() {
  std::vector<double> means = log_grid(1e-3, 1e4, 150);
  for (const double m : {1.0, 2.0, 5.0, 9.0, 11.5, 12.0, 20.0, 90.0}) {
    means.push_back(m);
  }
  means.push_back(std::nextafter(12.0, 0.0));
  means.push_back(std::nextafter(12.0, 100.0));
  EXPECT_EQ(count_mismatches<Engine>(
                means, 200, 8,
                [](BasicRng<Engine>& r, double mean) {
                  return r.poisson(mean);
                },
                [](Engine& e, double mean) {
                  return std::poisson_distribution<int>(mean)(e);
                }),
            0u);
}

TEST(RngExactness, ScalarSamplersMatchStdOnStreams) {
  expect_scalar_samplers_exact<SplitMix64Engine>();
}
TEST(RngExactness, ScalarSamplersMatchStdOnMt19937) {
  expect_scalar_samplers_exact<std::mt19937_64>();
}
TEST(RngExactness, PoissonMatchesStdOnStreams) {
  expect_poisson_exact<SplitMix64Engine>();
}
TEST(RngExactness, PoissonMatchesStdOnMt19937) {
  expect_poisson_exact<std::mt19937_64>();
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace willow::util
