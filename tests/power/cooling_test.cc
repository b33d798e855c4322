#include "power/cooling.h"

#include <gtest/gtest.h>

#include <cmath>

namespace willow::power {
namespace {

using namespace willow::util::literals;

TEST(CoolingModel, Validation) {
  CoolingConfig bad;
  bad.cop_at_reference = 0.0;
  EXPECT_THROW(CoolingModel{bad}, std::invalid_argument);
  bad = CoolingConfig{};
  bad.min_cop = 0.0;
  EXPECT_THROW(CoolingModel{bad}, std::invalid_argument);
  bad = CoolingConfig{};
  bad.fan_floor = Watts{-1.0};
  EXPECT_THROW(CoolingModel{bad}, std::invalid_argument);
}

TEST(CoolingModel, CopFallsWithOutsideTemperature) {
  CoolingModel m;
  EXPECT_DOUBLE_EQ(m.cop(25_degC), 3.5);
  EXPECT_NEAR(m.cop(35_degC), 3.5 - 0.8, 1e-12);
  EXPECT_GT(m.cop(15_degC), m.cop(25_degC));
}

TEST(CoolingModel, CopFloors) {
  CoolingModel m;
  EXPECT_DOUBLE_EQ(m.cop(util::Celsius{500.0}), 1.0);
}

TEST(CoolingModel, CoolingPowerArithmetic) {
  CoolingConfig cfg;
  cfg.cop_at_reference = 3.5;
  cfg.fan_floor = 20_W;
  CoolingModel m(cfg);
  EXPECT_NEAR(m.cooling_power(350_W, 25_degC).value(), 20.0 + 100.0, 1e-9);
  EXPECT_THROW((void)m.cooling_power(Watts{-1.0}, 25_degC),
               std::invalid_argument);
}

TEST(CoolingModel, FacilityPowerAndPue) {
  CoolingConfig cfg;
  cfg.cop_at_reference = 2.0;
  cfg.fan_floor = 0_W;
  CoolingModel m(cfg);
  EXPECT_NEAR(m.facility_power(100_W, 25_degC).value(), 150.0, 1e-9);
  EXPECT_NEAR(m.pue(100_W, 25_degC), 1.5, 1e-12);
  EXPECT_TRUE(std::isinf(m.pue(Watts{0.0}, 25_degC)));
}

TEST(CoolingModel, HotterDaysCostMorePerServedWatt) {
  CoolingModel m;
  EXPECT_GT(m.pue(300_W, 40_degC), m.pue(300_W, 25_degC));
}

TEST(CoolingModel, PueAlwaysAboveOne) {
  CoolingModel m;
  for (double it : {10.0, 100.0, 500.0}) {
    for (double ta : {15.0, 25.0, 40.0}) {
      EXPECT_GT(m.pue(Watts{it}, util::Celsius{ta}), 1.0);
    }
  }
}

}  // namespace
}  // namespace willow::power
