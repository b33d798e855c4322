#include "thermal/thermal_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/units.h"

namespace willow::thermal {
namespace {

using namespace willow::util::literals;

ThermalParams paper_sim_params() {
  ThermalParams p;
  p.c1 = 0.08;
  p.c2 = 0.05;
  p.ambient = 25_degC;
  p.limit = 70_degC;
  p.nameplate = 450_W;
  return p;
}

TEST(ThermalParams, ValidateRejectsBadConstants) {
  ThermalParams p = paper_sim_params();
  p.c1 = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = paper_sim_params();
  p.c2 = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = paper_sim_params();
  p.nameplate = Watts{-1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_NO_THROW(paper_sim_params().validate());
}

TEST(ThermalModel, StartsAtAmbientByDefault) {
  ThermalModel m(paper_sim_params());
  EXPECT_DOUBLE_EQ(m.temperature().value(), 25.0);
}

TEST(ThermalModel, ZeroPowerDecaysTowardAmbient) {
  ThermalModel m(paper_sim_params(), 60_degC);
  for (int i = 0; i < 10; ++i) m.step(0_W, 1_s);
  EXPECT_LT(m.temperature().value(), 60.0);
  EXPECT_GT(m.temperature().value(), 25.0);
  for (int i = 0; i < 500; ++i) m.step(0_W, 1_s);
  EXPECT_NEAR(m.temperature().value(), 25.0, 1e-6);
}

TEST(ThermalModel, ConstantPowerHeatsToSteadyState) {
  const auto p = paper_sim_params();
  ThermalModel m(p);
  const Watts power{100.0};
  for (int i = 0; i < 2000; ++i) m.step(power, 1_s);
  // Steady state: Ta + c1 P / c2.
  const double expected = 25.0 + 0.08 * 100.0 / 0.05;
  EXPECT_NEAR(m.temperature().value(), expected, 1e-6);
  EXPECT_NEAR(m.steady_state(power).value(), expected, 1e-12);
}

TEST(ThermalModel, MatchesClosedFormEquation3) {
  // T(D) = Ta + P c1/c2 (1 - e^{-c2 D}) + (T0 - Ta) e^{-c2 D}.
  const auto p = paper_sim_params();
  ThermalModel m(p, 40_degC);
  const double P = 200.0, D = 3.0;
  m.step(Watts{P}, Seconds{D});
  const double decay = std::exp(-p.c2 * D);
  const double expected =
      25.0 + P * p.c1 / p.c2 * (1.0 - decay) + (40.0 - 25.0) * decay;
  EXPECT_NEAR(m.temperature().value(), expected, 1e-12);
}

TEST(ThermalModel, PredictDoesNotMutate) {
  ThermalModel m(paper_sim_params(), 30_degC);
  const Celsius before = m.temperature();
  const Celsius predicted = m.predict(300_W, 5_s);
  EXPECT_EQ(m.temperature(), before);
  EXPECT_GT(predicted, before);
}

TEST(ThermalModel, StepEqualsPredict) {
  ThermalModel m(paper_sim_params(), 33_degC);
  const Celsius predicted = m.predict(120_W, 2_s);
  m.step(120_W, 2_s);
  EXPECT_DOUBLE_EQ(m.temperature().value(), predicted.value());
}

TEST(ThermalModel, NegativeDtThrows) {
  ThermalModel m(paper_sim_params());
  EXPECT_THROW(m.step(10_W, Seconds{-1.0}), std::invalid_argument);
}

TEST(ThermalModel, PowerLimitKeepsTemperatureUnderLimit) {
  ThermalModel m(paper_sim_params(), 50_degC);
  const Seconds window{4.0};
  const Watts limit = m.power_limit(window);
  const Celsius end = m.predict(limit, window);
  EXPECT_LE(end.value(), 70.0 + 1e-9);
  // Slightly more power must overshoot (unless clamped by nameplate).
  if (limit.value() < 450.0 - 1e-9) {
    EXPECT_GT(m.predict(limit + 10_W, window).value(), 70.0);
  }
}

TEST(ThermalModel, PowerLimitClampedByNameplate) {
  auto p = paper_sim_params();
  p.nameplate = 100_W;
  ThermalModel m(p);  // cold start, huge thermal headroom for small windows
  EXPECT_DOUBLE_EQ(m.power_limit(Seconds{0.1}).value(), 100.0);
}

TEST(ThermalModel, PowerLimitZeroWhenOverLimit) {
  ThermalModel m(paper_sim_params(), 80_degC);  // already above 70
  EXPECT_DOUBLE_EQ(m.power_limit(1_s).value(), 0.0);
  EXPECT_TRUE(m.over_limit());
}

TEST(ThermalModel, PowerLimitAtLimitAllowsSteadyHold) {
  // Exactly at T_limit, the window limit should approximately equal the
  // steady-state holding power.
  ThermalModel m(paper_sim_params(), 70_degC);
  const Watts hold = m.power_limit(1_s);
  const Watts steady = m.steady_state_power_limit();
  EXPECT_NEAR(hold.value(), steady.value(), steady.value() * 0.05);
}

TEST(ThermalModel, SteadyStatePowerLimitFormula) {
  ThermalModel m(paper_sim_params());
  EXPECT_NEAR(m.steady_state_power_limit().value(), 0.05 * 45.0 / 0.08, 1e-12);
}

TEST(ThermalModel, HotterAmbientLowersPowerLimit) {
  auto hot = paper_sim_params();
  hot.ambient = 45_degC;
  ThermalModel cold_m(paper_sim_params(), 25_degC);
  ThermalModel hot_m(hot, 45_degC);
  EXPECT_GT(cold_m.power_limit(2_s), hot_m.power_limit(2_s));
}

TEST(ThermalModel, AmbientChangeShiftsEquilibrium) {
  ThermalModel m(paper_sim_params());
  m.set_ambient(40_degC);
  for (int i = 0; i < 1000; ++i) m.step(0_W, 1_s);
  EXPECT_NEAR(m.temperature().value(), 40.0, 1e-6);
}

TEST(ThermalModelStateless, MatchesMemberFunction) {
  const auto p = paper_sim_params();
  ThermalModel m(p, 42_degC);
  EXPECT_DOUBLE_EQ(m.power_limit(3_s).value(),
                   power_limit_from(p, 42_degC, 3_s).value());
}

TEST(ThermalModelStateless, ZeroWindowThrows) {
  EXPECT_THROW(
      (void)power_limit_from(paper_sim_params(), 30_degC, Seconds{0.0}),
      std::invalid_argument);
}

// Semigroup property: one exact step over t equals any subdivision of t.
class ThermalSubdivision
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ThermalSubdivision, OneStepEqualsManySubsteps) {
  const auto [power, pieces] = GetParam();
  const auto p = paper_sim_params();
  ThermalModel whole(p, 37_degC);
  ThermalModel split(p, 37_degC);
  const double total = 6.0;
  whole.step(Watts{power}, Seconds{total});
  for (int i = 0; i < pieces; ++i) {
    split.step(Watts{power}, Seconds{total / pieces});
  }
  EXPECT_NEAR(whole.temperature().value(), split.temperature().value(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PowerAndPieces, ThermalSubdivision,
    ::testing::Combine(::testing::Values(0.0, 50.0, 200.0, 450.0),
                       ::testing::Values(2, 7, 60)));

TEST(ThermalModel, PowerLimitDecreasesWithLongerWindows) {
  // Holding power for longer leaves less headroom: P_limit is monotone
  // decreasing in the window and approaches the steady-state limit.
  const auto p = paper_sim_params();
  ThermalModel m(p);  // cold start
  double prev = 1e18;
  for (double w : {0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1000.0}) {
    auto raw = p;
    raw.nameplate = Watts{1e18};
    const double limit = power_limit_from(raw, 25_degC, Seconds{w}).value();
    EXPECT_LT(limit, prev) << "window " << w;
    prev = limit;
  }
  EXPECT_NEAR(prev, m.steady_state_power_limit().value(), 0.01);
}

TEST(ThermalModel, VaryingScheduleMatchesPiecewiseAnalytic) {
  const auto p = paper_sim_params();
  ThermalModel stepped(p, 30_degC);
  const double powers[] = {50.0, 300.0, 0.0, 120.0};
  for (double pw : powers) stepped.step(Watts{pw}, Seconds{2.5});

  // Manual piecewise closed form.
  double temp = 30.0;
  for (double pw : powers) {
    const double decay = std::exp(-p.c2 * 2.5);
    temp = 25.0 + pw * p.c1 / p.c2 * (1.0 - decay) + (temp - 25.0) * decay;
  }
  EXPECT_NEAR(stepped.temperature().value(), temp, 1e-9);
}

TEST(ThermalModel, ZeroDtIsIdentity) {
  ThermalModel m(paper_sim_params(), 42_degC);
  m.step(300_W, Seconds{0.0});
  EXPECT_DOUBLE_EQ(m.temperature().value(), 42.0);
}

TEST(ThermalModel, SetTemperatureOverridesState) {
  ThermalModel m(paper_sim_params());
  m.set_temperature(55_degC);
  EXPECT_DOUBLE_EQ(m.temperature().value(), 55.0);
  EXPECT_FALSE(m.over_limit());
  m.set_temperature(70_degC);
  EXPECT_TRUE(m.over_limit());
}

// The Fig.-4 selection argument: with c1=0.08, c2=0.05 the cold-start power
// limit over roughly one adjustment window lands near the 450 W nameplate.
TEST(ThermalModel, PaperConstantsMatchNameplateAtColdStart) {
  auto p = paper_sim_params();
  p.nameplate = Watts{1e9};  // unclamp to observe the raw thermal limit
  const Watts limit = power_limit_from(p, 25_degC, Seconds{1.3});
  EXPECT_NEAR(limit.value(), 450.0, 30.0);
}

// And at Ta = 45 with the component already at its 70-degree limit, the
// presented surplus approaches the steady holding level (paper: "almost
// zero" relative to the 450 W rating).
TEST(ThermalModel, HotZoneAtLimitPresentsAlmostNoSurplus) {
  auto p = paper_sim_params();
  p.ambient = 45_degC;
  ThermalModel m(p, 70_degC);
  EXPECT_LT(m.power_limit(1_s).value(), 0.1 * 450.0);
}

}  // namespace
}  // namespace willow::thermal
