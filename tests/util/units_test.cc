#include "util/units.h"

#include <gtest/gtest.h>

#include <bit>
#include <compare>
#include <cstdint>
#include <limits>
#include <sstream>

namespace willow::util {
namespace {

using namespace willow::util::literals;

TEST(Units, DefaultConstructsToZero) {
  Watts w;
  EXPECT_EQ(w.value(), 0.0);
}

TEST(Units, LiteralsProduceExpectedValues) {
  EXPECT_DOUBLE_EQ((450_W).value(), 450.0);
  EXPECT_DOUBLE_EQ((25.5_degC).value(), 25.5);
  EXPECT_DOUBLE_EQ((2_s).value(), 2.0);
  EXPECT_DOUBLE_EQ((3.5_J).value(), 3.5);
  EXPECT_DOUBLE_EQ((512_MB).value(), 512.0);
}

TEST(Units, AdditionAndSubtraction) {
  EXPECT_DOUBLE_EQ((100_W + 50_W).value(), 150.0);
  EXPECT_DOUBLE_EQ((100_W - 50_W).value(), 50.0);
  EXPECT_DOUBLE_EQ((-(30_W)).value(), -30.0);
}

TEST(Units, CompoundAssignment) {
  Watts w{10.0};
  w += 5_W;
  EXPECT_DOUBLE_EQ(w.value(), 15.0);
  w -= 3_W;
  EXPECT_DOUBLE_EQ(w.value(), 12.0);
  w *= 2.0;
  EXPECT_DOUBLE_EQ(w.value(), 24.0);
  w /= 4.0;
  EXPECT_DOUBLE_EQ(w.value(), 6.0);
}

TEST(Units, ScalarMultiplication) {
  EXPECT_DOUBLE_EQ((10_W * 3.0).value(), 30.0);
  EXPECT_DOUBLE_EQ((3.0 * 10_W).value(), 30.0);
  EXPECT_DOUBLE_EQ((10_W / 4.0).value(), 2.5);
}

TEST(Units, SameUnitRatioIsDimensionless) {
  const double ratio = 30_W / 60_W;
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(Units, Comparisons) {
  EXPECT_LT(10_W, 20_W);
  EXPECT_GT(20_W, 10_W);
  EXPECT_EQ(15_W, 15_W);
  EXPECT_LE(15_W, 15_W);
  EXPECT_GE(15_W, 15_W);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = 100_W * 10_s;
  EXPECT_DOUBLE_EQ(e.value(), 1000.0);
  const Joules e2 = 10_s * 100_W;
  EXPECT_DOUBLE_EQ(e2.value(), 1000.0);
}

TEST(Units, EnergyOverTimeIsPower) {
  const Watts p = 1000_J / 10_s;
  EXPECT_DOUBLE_EQ(p.value(), 100.0);
}

TEST(Units, PositivePartClampsNegatives) {
  EXPECT_DOUBLE_EQ(positive_part(5_W - 3_W).value(), 2.0);
  EXPECT_DOUBLE_EQ(positive_part(3_W - 5_W).value(), 0.0);
  EXPECT_DOUBLE_EQ(positive_part(Watts{0.0}).value(), 0.0);
}

TEST(Units, MinMax) {
  EXPECT_EQ(min(3_W, 7_W), 3_W);
  EXPECT_EQ(max(3_W, 7_W), 7_W);
  EXPECT_EQ(min(7_W, 7_W), 7_W);
}

TEST(Units, SelectsMatchTheObviousSelectsBitwise) {
  // positive_part, min, max and the ordering operators work on raw doubles
  // and compile without branches; they must return exactly what the obvious
  // selects over the defaulted <=> return, signed zeros and NaN included.
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {0.0,  -0.0, 1.5,  -1.5, 1e-310, -1e-310,
                           1e308, -1e308, inf, -inf, nan,   -nan};
  for (const double x : values) {
    const Watts q{x};
    const Watts want_pp = q.value() > 0.0 ? q : Watts{0.0};
    EXPECT_EQ(bits(positive_part(q).value()), bits(want_pp.value())) << x;
    EXPECT_EQ(bits(keep_or_zero(true, x)), bits(x)) << x;
    EXPECT_EQ(bits(keep_or_zero(false, x)), bits(0.0)) << x;
    for (const double y : values) {
      const Watts r{y};
      const auto order = q <=> r;
      EXPECT_EQ(q < r, order < 0) << x << " " << y;
      EXPECT_EQ(q > r, order > 0) << x << " " << y;
      EXPECT_EQ(q <= r, order <= 0) << x << " " << y;
      EXPECT_EQ(q >= r, order >= 0) << x << " " << y;
      const Watts want_min = order < 0 ? q : r;
      const Watts want_max = order < 0 ? r : q;
      EXPECT_EQ(bits(min(q, r).value()), bits(want_min.value()))
          << x << " " << y;
      EXPECT_EQ(bits(max(q, r).value()), bits(want_max.value()))
          << x << " " << y;
    }
  }
}

TEST(Units, StreamOutput) {
  std::ostringstream os;
  os << 42.5_W;
  EXPECT_EQ(os.str(), "42.5");
}

}  // namespace
}  // namespace willow::util
