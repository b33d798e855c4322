#include "core/allocation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/rng.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;

std::vector<Watts> watts_of(std::initializer_list<double> xs) {
  std::vector<Watts> v;
  for (double x : xs) v.emplace_back(x);
  return v;
}

double sum(const std::vector<Watts>& v) {
  double s = 0.0;
  for (const auto& w : v) s += w.value();
  return s;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(Allocation, ValidatesInputs) {
  EXPECT_THROW(
      allocate_proportional(100_W, watts_of({1.0}), watts_of({1.0, 2.0})),
      std::invalid_argument);
  EXPECT_THROW(
      allocate_proportional(Watts{-1.0}, watts_of({1.0}), watts_of({1.0})),
      std::invalid_argument);
}

TEST(Allocation, EmptyChildrenReturnsAllUnallocated) {
  const auto r = allocate_proportional(100_W, {}, {});
  EXPECT_TRUE(r.budgets.empty());
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 100.0);
}

TEST(Allocation, DeficitRegimeIsProportionalToDemand) {
  // Total 60 against demands (30, 60, 90): shares 10/20/30.
  const auto r = allocate_proportional(
      60_W, watts_of({30, 60, 90}), watts_of({kInf, kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 10.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 20.0, 1e-9);
  EXPECT_NEAR(r.budgets[2].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, ExactDemandMet) {
  const auto r = allocate_proportional(
      100_W, watts_of({40, 60}), watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 40.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 60.0, 1e-9);
}

TEST(Allocation, SurplusSpreadsProportionalToDemand) {
  // 50 spare over demands (40, 60): +20 and +30.
  const auto r = allocate_proportional(
      150_W, watts_of({40, 60}), watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 60.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 90.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, HardCapsRedirectToUncappedSiblings) {
  // Child 0 capped at 15 although its share would be 30: the excess flows
  // to child 1 (uncapped), not back up.
  const auto r = allocate_proportional(
      60_W, watts_of({30, 30}), watts_of({15, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 15.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 45.0, 1e-9);
}

TEST(Allocation, UnallocatableWhenAllCapped) {
  const auto r = allocate_proportional(
      100_W, watts_of({50, 50}), watts_of({20, 30}));
  EXPECT_NEAR(r.budgets[0].value(), 20.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 50.0, 1e-9);
}

TEST(Allocation, ZeroDemandChildrenShareByCapHeadroom) {
  // Nothing demands anything; the surplus still banks downstream in
  // proportion to caps (phase 2b).
  const auto r = allocate_proportional(
      90_W, watts_of({0, 0}), watts_of({100, 200}));
  EXPECT_NEAR(r.budgets[0].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 60.0, 1e-9);
}

TEST(Allocation, MixedZeroAndNonZeroDemands) {
  // Demanders get satisfied first; true leftover then goes by headroom.
  const auto r = allocate_proportional(
      100_W, watts_of({40, 0}), watts_of({50, 60}));
  EXPECT_NEAR(r.budgets[0].value(), 50.0, 1e-9);  // 40 demand + spare to cap
  EXPECT_NEAR(r.budgets[1].value(), 50.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, ZeroTotal) {
  const auto r = allocate_proportional(
      Watts{0.0}, watts_of({10, 20}), watts_of({kInf, kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.budgets[1].value(), 0.0);
}

TEST(Allocation, NegativeDemandsTreatedAsZero) {
  const auto r = allocate_proportional(
      10_W, watts_of({-5, 10}), watts_of({kInf, kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_NEAR(r.budgets[1].value(), 10.0, 1e-9);
}

TEST(Allocation, SingleChildTakesEverythingUpToCap) {
  auto r = allocate_proportional(100_W, watts_of({30}), watts_of({kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 100.0);
  r = allocate_proportional(100_W, watts_of({30}), watts_of({60}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 60.0);
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 40.0);
}

TEST(Allocation, AllZeroCapsReturnEverything) {
  const auto r =
      allocate_proportional(100_W, watts_of({10, 20}), watts_of({0, 0}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.budgets[1].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 100.0);
}

TEST(Allocation, HugeTotalWithInfiniteCapsFullyAllocated) {
  const auto r = allocate_proportional(Watts{1e9}, watts_of({1, 3}),
                                       watts_of({kInf, kInf}));
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1.0);
  // Surplus spread proportional to demand: 1:3.
  EXPECT_NEAR(r.budgets[1].value() / r.budgets[0].value(), 3.0, 1e-6);
}

TEST(Allocation, TinyTotalSplitsProportionally) {
  const auto r = allocate_proportional(Watts{1e-6}, watts_of({10, 30}),
                                       watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 0.25e-6, 1e-12);
  EXPECT_NEAR(r.budgets[1].value(), 0.75e-6, 1e-12);
}

TEST(Allocation, ScratchReuseMatchesFreshCallsBitwise) {
  // One scratch and one output carried through calls of varying width and
  // regime, as the controller's top-down division does: leftovers from a
  // wider or differently-shaped previous call must never leak into a result.
  util::Rng rng(17);
  struct Case {
    Watts total;
    std::vector<Watts> demands, caps;
  };
  auto random_case = [&](std::size_t n, double total) {
    Case c{Watts{total}, {}, {}};
    for (std::size_t i = 0; i < n; ++i) {
      c.demands.emplace_back(rng.uniform(0.0, 100.0));
      c.caps.emplace_back(rng.uniform(20.0, 150.0));
    }
    return c;
  };
  std::vector<Case> cases;
  cases.push_back(random_case(1, 40.0));
  cases.push_back(random_case(40, 1500.0));
  cases.push_back(random_case(3, 90.0));
  cases.push_back(random_case(250, 9000.0));
  Case inf_caps = random_case(7, 5000.0);
  for (auto& cap : inf_caps.caps) cap = Watts{kInf};
  cases.push_back(inf_caps);
  Case zero_demand = random_case(5, 200.0);
  for (auto& d : zero_demand.demands) d = Watts{0.0};
  cases.push_back(zero_demand);
  Case over_caps = random_case(12, 0.0);
  over_caps.total = Watts{sum(over_caps.caps) + 500.0};
  cases.push_back(over_caps);
  cases.push_back(random_case(2, 60.0));

  AllocationScratch scratch;
  AllocationResult out;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    allocate_proportional(c.total, c.demands, c.caps, scratch, out);
    const AllocationResult fresh =
        allocate_proportional(c.total, c.demands, c.caps);
    ASSERT_EQ(out.budgets.size(), fresh.budgets.size()) << "case " << k;
    for (std::size_t i = 0; i < fresh.budgets.size(); ++i) {
      EXPECT_EQ(bits_of(out.budgets[i].value()),
                bits_of(fresh.budgets[i].value()))
          << "case " << k << " child " << i;
    }
    EXPECT_EQ(bits_of(out.unallocated.value()),
              bits_of(fresh.unallocated.value()))
        << "case " << k;
  }
  // The over-caps case really leaves budget unplaced.
  EXPECT_GT(allocate_proportional(over_caps.total, over_caps.demands,
                                  over_caps.caps)
                .unallocated.value(),
            0.0);
}

// The water-fill kernel as it stood before it kept a compacted list of live
// entries: every round rescans all entries and skips the frozen ones.  The
// production kernel must reproduce it bit for bit.
double reference_water_fill(double amount, const std::vector<double>& weights,
                            const std::vector<double>& limit,
                            std::vector<double>& value) {
  constexpr double kEps = 1e-12;
  const std::size_t n = weights.size();
  std::vector<char> frozen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= kEps || limit[i] - value[i] <= kEps) frozen[i] = 1;
  }
  while (amount > kEps) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) wsum += weights[i];
    }
    if (wsum <= kEps) break;
    bool clamped = false;
    double placed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const double share = amount * weights[i] / wsum;
      const double headroom = limit[i] - value[i];
      if (share >= headroom - kEps) {
        value[i] += headroom;
        placed += headroom;
        frozen[i] = 1;
        clamped = true;
      } else {
        value[i] += share;
        placed += share;
      }
    }
    amount -= placed;
    if (!clamped) {
      amount = std::max(0.0, amount);
      break;
    }
  }
  return std::max(0.0, amount);
}

AllocationResult reference_allocate(Watts total,
                                    const std::vector<Watts>& demands,
                                    const std::vector<Watts>& caps) {
  constexpr double kEps = 1e-12;
  const std::size_t n = demands.size();
  AllocationResult out;
  out.budgets.assign(n, Watts{0.0});
  if (n == 0) {
    out.unallocated = total;
    return out;
  }
  std::vector<double> demand(n), cap(n), value(n, 0.0), limit(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand[i] = std::max(0.0, demands[i].value());
    cap[i] = std::max(0.0, caps[i].value());
    if (std::isinf(cap[i])) cap[i] = std::numeric_limits<double>::max();
  }
  for (std::size_t i = 0; i < n; ++i) limit[i] = std::min(demand[i], cap[i]);
  double leftover = reference_water_fill(total.value(), demand, limit, value);
  if (leftover > kEps) {
    leftover = reference_water_fill(leftover, demand, cap, value);
  }
  if (leftover > kEps) {
    for (std::size_t i = 0; i < n; ++i) limit[i] = cap[i] - value[i];
    leftover = reference_water_fill(leftover, limit, cap, value);
  }
  for (std::size_t i = 0; i < n; ++i) out.budgets[i] = Watts{value[i]};
  out.unallocated = Watts{leftover};
  return out;
}

TEST(Allocation, WaterFillMatchesTheRescanningKernelBitwise) {
  // Random instances biased toward the kernel's edge cases: tied demands
  // and caps (several entries clamp in one round), zero demands (zero
  // weights), infinite caps, totals above every cap (all entries clamp and
  // budget is left over) and wide fan-outs (many rounds).
  util::Rng rng(2024);
  AllocationScratch scratch;
  AllocationResult out;
  std::size_t clamped_all = 0;
  for (int round = 0; round < 20000; ++round) {
    const int n = rng.chance(0.1) ? rng.uniform_int(40, 200)
                                  : rng.uniform_int(1, 12);
    const double tie_demand = rng.uniform(0.0, 50.0);
    const double tie_cap = rng.uniform(0.0, 80.0);
    std::vector<Watts> demands, caps;
    for (int i = 0; i < n; ++i) {
      double d = rng.uniform(0.0, 100.0);
      if (rng.chance(0.3)) d = tie_demand;
      if (rng.chance(0.15)) d = 0.0;
      double c = rng.uniform(0.0, 150.0);
      if (rng.chance(0.3)) c = tie_cap;
      if (rng.chance(0.15)) c = kInf;
      if (rng.chance(0.05)) c = 0.0;
      demands.emplace_back(d);
      caps.emplace_back(c);
    }
    double total = rng.uniform(0.0, 120.0 * n);
    if (rng.chance(0.2)) {
      total = 0.0;
      for (const Watts c : caps) {
        total += std::isinf(c.value()) ? 100.0 : c.value();
      }
      total += rng.uniform(0.0, 50.0);
    }
    const AllocationResult want = reference_allocate(Watts{total}, demands, caps);
    allocate_proportional(Watts{total}, demands, caps, scratch, out);
    ASSERT_EQ(out.budgets.size(), want.budgets.size());
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(bits_of(out.budgets[i].value()),
                bits_of(want.budgets[i].value()))
          << "round " << round << " child " << i;
    }
    ASSERT_EQ(bits_of(out.unallocated.value()),
              bits_of(want.unallocated.value()))
        << "round " << round;
    if (want.unallocated.value() > 0.0) ++clamped_all;
  }
  // The all-clamped regime was really exercised.
  EXPECT_GT(clamped_all, 100u);
}

class AllocationRandom : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(AllocationRandom, ConservationAndCapsAlwaysHold) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const int n = rng.uniform_int(1, 12);
    std::vector<Watts> demands, caps;
    for (int i = 0; i < n; ++i) {
      demands.emplace_back(rng.uniform(0.0, 100.0));
      caps.emplace_back(rng.chance(0.2) ? kInf : rng.uniform(0.0, 150.0));
    }
    const Watts total{rng.uniform(0.0, 600.0)};
    const auto r = allocate_proportional(total, demands, caps);
    ASSERT_EQ(r.budgets.size(), static_cast<std::size_t>(n));
    double s = sum(r.budgets);
    // Conservation: nothing created or lost.
    EXPECT_NEAR(s + r.unallocated.value(), total.value(), 1e-6);
    for (int i = 0; i < n; ++i) {
      EXPECT_GE(r.budgets[i].value(), -1e-9);
      EXPECT_LE(r.budgets[i].value(), caps[i].value() + 1e-6);
    }
    // No watt idles while an unsatisfied demand remains below its cap.
    if (r.unallocated.value() > 1e-6) {
      for (int i = 0; i < n; ++i) {
        EXPECT_GE(r.budgets[i].value() + 1e-6, caps[i].value())
            << "unallocated " << r.unallocated.value() << " but child " << i
            << " below cap";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace willow::core
