// Deterministic random-number utilities.
//
// Every stochastic element of the simulator (Poisson demand, application
// mixes, sensor noise) draws from a Rng seeded explicitly by the scenario, so
// every experiment in EXPERIMENTS.md is exactly reproducible.
//
// Two kinds of generators:
//
//  * Rng — the sequential scenario generator (mt19937_64).  One stream per
//    scenario; draws depend on everything drawn before them.  Used for
//    one-shot construction work (building application mixes, calibration
//    noise) where ordering is naturally serial.
//
//  * StreamRng — counter-based splittable streams for the parallel tick
//    engine.  A stream is keyed by (seed, tick, server, phase) through
//    stream_seed(); the draws of one stream are completely independent of
//    any other stream and of the order streams are consumed in.  This is
//    what makes the sharded per-server simulation phases bit-deterministic
//    for any thread count: thread scheduling can reorder *which* stream is
//    sampled first, but never what any stream yields.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace willow::util {

/// SplitMix64 finalizer: a high-quality 64-bit mix (Steele et al., "Fast
/// splittable pseudorandom number generators").  Stateless; used both to key
/// streams and as the per-draw output function of SplitMix64Engine.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The (seed, a) half of stream_seed: its first two mixes.  A loop over the
/// servers of one tick computes it once and finishes each key with
/// stream_seed_suffix.
[[nodiscard]] constexpr std::uint64_t stream_prefix(std::uint64_t seed,
                                                    std::uint64_t a) {
  // Fold each coordinate through the full mix with distinct odd offsets so
  // (seed, a, b, c) and permutations of it key different streams.
  const std::uint64_t h = splitmix64_mix(seed + 0x9E3779B97F4A7C15ULL);
  return splitmix64_mix(h ^ (a + 0xBF58476D1CE4E5B9ULL));
}

/// The (b, c) half of stream_seed, over a stream_prefix.
[[nodiscard]] constexpr std::uint64_t stream_seed_suffix(std::uint64_t prefix,
                                                         std::uint64_t b,
                                                         std::uint64_t c) {
  const std::uint64_t h = splitmix64_mix(prefix ^ (b + 0x94D049BB133111EBULL));
  return splitmix64_mix(h ^ (c + 0xD6E8FEB86659FD93ULL));
}

/// Derive the seed of an independent counter-based stream from a scenario
/// seed and up to three coordinates (e.g. tick, server index, phase tag).
/// Collision-resistant in practice: each coordinate passes through the full
/// 64-bit mix before being combined.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                                  std::uint64_t a,
                                                  std::uint64_t b = 0,
                                                  std::uint64_t c = 0) {
  return stream_seed_suffix(stream_prefix(seed, a), b, c);
}

/// Phase tags for the per-server tick streams (keep values stable: they are
/// part of the reproducibility contract of recorded experiments).
namespace stream_phase {
inline constexpr std::uint64_t kChurn = 1;   ///< churn arrival/departure draws
inline constexpr std::uint64_t kDemand = 2;  ///< Poisson demand refresh
inline constexpr std::uint64_t kFault = 3;   ///< report-loss sampling
inline constexpr std::uint64_t kLinkUp = 4;    ///< up-link fault verdicts
inline constexpr std::uint64_t kLinkDown = 5;  ///< down-link fault verdicts
inline constexpr std::uint64_t kSensor = 6;    ///< sensor fault onset/params
inline constexpr std::uint64_t kCrash = 7;     ///< server crash sampling
}  // namespace stream_phase

/// Counter-based engine: state is a bare counter, output is splitmix64_mix of
/// it.  Satisfies UniformRandomBitGenerator; construction is two stores (no
/// mt19937-style state-table initialization), so creating one engine per
/// (tick, server, phase) is cheap enough for the hot loop.
class SplitMix64Engine {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64Engine(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return splitmix64_mix(state_);
  }

  friend bool operator==(const SplitMix64Engine&,
                         const SplitMix64Engine&) = default;

 private:
  std::uint64_t state_;
};

// The samplers below are util's own, and each is bit-exact against the
// libstdc++ 12 distribution it replaces: it consumes the engine in the same
// order and returns the same double or integer (tests/util/rng_test.cc checks
// both, value by value).  None builds a std::*_distribution and none holds
// static or thread_local state, so any number of workers can draw at once.

/// One engine word as a uniform double in [0, 1).  libstdc++'s
/// generate_canonical<double, 53> over a 2^64-range engine returns
/// double(u) / 2^64, clamped to the largest double below 1.  GCC converts an
/// unsigned word to double with a branch on its top bit, which mispredicts
/// on half of all words.  Here both 32-bit halves convert exactly as signed
/// integers, so their sum is rounded once and equals double(u).
[[nodiscard]] inline double canonical(std::uint64_t u) {
  const double hi =
      static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32;
  const double lo =
      static_cast<double>(static_cast<std::int64_t>(u & 0xffffffffULL));
  return std::min((hi + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// An exponential variate of the given mean from one canonical uniform:
/// exponential_distribution's formula, rate and all.
[[nodiscard]] inline double exponential_of(double u, double mean) {
  return -std::log(1.0 - u) / (1.0 / mean);
}

/// The set-up of Poisson draws of one mean: poisson_distribution<int>'s
/// param_type (bits/random.tcc), with lgamma_r in place of lgamma, which
/// writes glibc's global signgam.  `mean` must be > 0.
struct PoissonParams {
  explicit PoissonParams(double mean);

  double mean;
  double lm_thr;  ///< exp(-mean) below 12; log(mean) from 12 up
  // The rejection branch's constants (mean >= 12 only).
  double lfm = 0.0;
  double sm = 0.0;
  double d = 0.0;
  double scx = 0.0;
  double one_cx = 0.0;
  double c2b = 0.0;
  double cb = 0.0;
};

/// lgamma without the write to signgam.
[[nodiscard]] double log_gamma(double x);

/// Distribution helpers over a UniformRandomBitGenerator engine of range
/// 2^64 (SplitMix64Engine, mt19937_64).
template <typename Engine>
class BasicRng {
  static_assert(Engine::min() == 0 && Engine::max() == ~std::uint64_t{0},
                "canonical() assumes an engine of range 2^64");

 public:
  explicit BasicRng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1) from one engine word.
  double canonical() { return util::canonical(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Poisson sample with the given mean (the paper models per-node power
  /// demand as Poisson-distributed, Sec. V-B1).
  int poisson(double mean) {
    if (mean <= 0.0) return 0;
    const PoissonParams p(mean);
    return p.mean >= 12 ? poisson_rejection(p) : poisson_product(p.lm_thr);
  }

  /// Zero-mean Gaussian with the given standard deviation (sensor noise).
  double gaussian(double stddev) {
    if (stddev <= 0.0) return 0.0;
    return std::normal_distribution<double>(0.0, stddev)(engine_);
  }

  /// Exponential sample with the given mean.
  double exponential(double mean) { return exponential_of(canonical(), mean); }

  /// Bernoulli trial.
  bool chance(double p) { return canonical() < p; }

  /// Pick a uniformly random index into a container of size n (n > 0).
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child stream (stable: depends only on parent seed
  /// sequence position).
  BasicRng fork() { return BasicRng(engine_()); }

  Engine& engine() { return engine_; }

 private:
  /// Below 12: count uniforms until their product drops to exp(-mean).
  int poisson_product(double exp_minus_mean) {
    int x = 0;
    double prod = 1.0;
    do {
      prod *= canonical();
      x += 1;
    } while (prod > exp_minus_mean);
    return x - 1;
  }

  /// A standard normal by the polar method; one call yields two variates,
  /// and the second is kept for the next call, as normal_distribution does.
  struct PolarNormal {
    bool saved_available = false;
    double saved = 0.0;

    double operator()(BasicRng& rng) {
      if (saved_available) {
        saved_available = false;
        return saved;
      }
      double x = 0.0;
      double y = 0.0;
      double r2 = 0.0;
      do {
        x = 2.0 * rng.canonical() - 1.0;
        y = 2.0 * rng.canonical() - 1.0;
        r2 = x * x + y * y;
      } while (r2 > 1.0 || r2 == 0.0);
      const double mult = std::sqrt(-2 * std::log(r2) / r2);
      saved = x * mult;
      saved_available = true;
      return y * mult;
    }
  };

  /// From 12 up: Devroye's rejection algorithm (Non-Uniform Random Variate
  /// Generation, Ch. X, 3.3-3.4 and errata) as libstdc++ 12 writes it.  The
  /// normal is fresh per draw and keeps its saved value for the rest of the
  /// draw, as poisson_distribution's per-object normal does.
  int poisson_rejection(const PoissonParams& p) {
    const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
    const double thr = std::numeric_limits<int>::max() + naf;
    const double m = std::floor(p.mean);
    const double spi_2 = 1.2533141373155002512078826424055226L;  // sqrt(pi/2)
    const double c1 = p.sm * spi_2;
    const double c2 = p.c2b + c1;
    const double c3 = c2 + 1;
    const double c4 = c3 + 1;
    const double l178 = 0.0128205128205128205128205128205128L;  // 1/78
    const double e178 = 1.0129030479320018583185514777512983L;  // e^(1/78)
    const double c5 = c4 + e178;
    const double c = p.cb + c5;
    const double two_cx = 2 * (2 * m + p.d);
    PolarNormal normal;
    double x = 0.0;
    // `reject` stays true until a candidate is accepted, so a `continue`
    // below retries.
    bool reject = true;
    do {
      const double u = c * canonical();
      const double e = -std::log(1.0 - canonical());
      double w = 0.0;
      if (u <= c1) {
        const double n = normal(*this);
        const double y = -std::abs(n) * p.sm - 1;
        x = std::floor(y);
        w = -n * n / 2;
        if (x < -m) continue;
      } else if (u <= c2) {
        const double n = normal(*this);
        const double y = 1 + std::abs(n) * p.scx;
        x = std::ceil(y);
        w = y * (2 - y) * p.one_cx;
        if (x > p.d) continue;
      } else if (u <= c3) {
        x = -1;
      } else if (u <= c4) {
        x = 0;
      } else if (u <= c5) {
        x = 1;
        w = l178;
      } else {
        const double v = -std::log(1.0 - canonical());
        const double y = p.d + v * two_cx / p.d;
        x = std::ceil(y);
        w = -p.d * p.one_cx * (1 + y / 2);
      }
      reject = w - e - x * p.lm_thr > p.lfm - log_gamma(x + m + 1);
      reject |= x + m >= thr;
    } while (reject);
    return static_cast<int>(x + m + naf);
  }

  Engine engine_;
};

/// The sequential scenario generator (construction-time randomness).
using Rng = BasicRng<std::mt19937_64>;

/// One counter-based splittable stream (tick-engine randomness).
using StreamRng = BasicRng<SplitMix64Engine>;

/// The per-server stream of one tick phase.
[[nodiscard]] inline StreamRng tick_stream(std::uint64_t seed,
                                           std::uint64_t tick,
                                           std::uint64_t server,
                                           std::uint64_t phase) {
  return StreamRng(stream_seed(seed, tick, server, phase));
}

/// The per-server streams of one tick: tick_stream with the (seed, tick)
/// half of the key mixed once, for loops over servers.
/// `TickStreams(seed, tick)(server, phase)` equals
/// `tick_stream(seed, tick, server, phase)`.
class TickStreams {
 public:
  TickStreams(std::uint64_t seed, std::uint64_t tick)
      : prefix_(stream_prefix(seed, tick)) {}

  [[nodiscard]] StreamRng operator()(std::uint64_t server,
                                     std::uint64_t phase) const {
    return StreamRng(stream_seed_suffix(prefix_, server, phase));
  }

 private:
  std::uint64_t prefix_;
};

}  // namespace willow::util
