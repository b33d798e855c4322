#include "power/switch_power.h"

#include <gtest/gtest.h>

namespace willow::power {
namespace {

using namespace willow::util::literals;

TEST(SwitchPowerModel, RejectsNegativeParameters) {
  EXPECT_THROW(SwitchPowerModel(Watts{-1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(SwitchPowerModel(1_W, -1.0), std::invalid_argument);
}

TEST(SwitchPowerModel, StaticPlusDynamic) {
  SwitchPowerModel m(5_W, 10.0);
  EXPECT_DOUBLE_EQ(m.power(0.0).value(), 5.0);
  EXPECT_DOUBLE_EQ(m.power(2.0).value(), 25.0);
}

TEST(SwitchPowerModel, NegativeTrafficThrows) {
  SwitchPowerModel m(5_W, 10.0);
  EXPECT_THROW((void)m.power(-0.1), std::invalid_argument);
}

TEST(SwitchPowerModel, CapacityUnderBudgetInvertsPower) {
  SwitchPowerModel m(5_W, 10.0);
  EXPECT_DOUBLE_EQ(m.capacity_under_budget(25_W), 2.0);
  EXPECT_DOUBLE_EQ(m.capacity_under_budget(5_W), 0.0);
  EXPECT_DOUBLE_EQ(m.capacity_under_budget(2_W), 0.0);  // below static
}

TEST(SwitchPowerModel, CapacityWithZeroSlopeIsZero) {
  SwitchPowerModel m(5_W, 0.0);
  EXPECT_DOUBLE_EQ(m.capacity_under_budget(100_W), 0.0);
}

TEST(SwitchPowerModel, PaperSimulationHasSmallStaticPart) {
  // Sec. V-B5: "The static part is fixed and is very small."
  const auto m = SwitchPowerModel::paper_simulation();
  EXPECT_LT(m.static_power().value(), 0.1 * m.power(3.0).value());
}

TEST(SwitchPowerModel, DynamicProportionalToTraffic) {
  const auto m = SwitchPowerModel::paper_simulation();
  const double d1 = (m.power(1.0) - m.static_power()).value();
  const double d3 = (m.power(3.0) - m.static_power()).value();
  EXPECT_NEAR(d3, 3.0 * d1, 1e-9);
}

}  // namespace
}  // namespace willow::power
