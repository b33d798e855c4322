#include "power/server_power.h"

#include <gtest/gtest.h>

namespace willow::power {
namespace {

using namespace willow::util::literals;

TEST(ServerPowerModel, RejectsBadParameters) {
  EXPECT_THROW(ServerPowerModel(Watts{-1.0}, 100_W), std::invalid_argument);
  EXPECT_THROW(ServerPowerModel(100_W, 50_W), std::invalid_argument);
  EXPECT_NO_THROW(ServerPowerModel(100_W, 100_W));
}

TEST(ServerPowerModel, LinearInterpolation) {
  ServerPowerModel m(100_W, 200_W);
  EXPECT_DOUBLE_EQ(m.power(0.0).value(), 100.0);
  EXPECT_DOUBLE_EQ(m.power(0.5).value(), 150.0);
  EXPECT_DOUBLE_EQ(m.power(1.0).value(), 200.0);
}

TEST(ServerPowerModel, ClampsUtilization) {
  ServerPowerModel m(100_W, 200_W);
  EXPECT_DOUBLE_EQ(m.power(-0.5).value(), 100.0);
  EXPECT_DOUBLE_EQ(m.power(1.5).value(), 200.0);
}

TEST(ServerPowerModel, InverseRoundTrips) {
  ServerPowerModel m(100_W, 200_W);
  for (double u : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    EXPECT_NEAR(m.utilization(m.power(u)), u, 1e-12);
  }
}

TEST(ServerPowerModel, InverseClampsOutOfRange) {
  ServerPowerModel m(100_W, 200_W);
  EXPECT_DOUBLE_EQ(m.utilization(50_W), 0.0);
  EXPECT_DOUBLE_EQ(m.utilization(500_W), 1.0);
}

TEST(ServerPowerModel, DegenerateFlatModel) {
  ServerPowerModel m(100_W, 100_W);
  EXPECT_DOUBLE_EQ(m.power(0.7).value(), 100.0);
  EXPECT_DOUBLE_EQ(m.utilization(100_W), 1.0);
  EXPECT_DOUBLE_EQ(m.utilization(99_W), 0.0);
}

TEST(ServerPowerModel, MonotonicInUtilization) {
  ServerPowerModel m = ServerPowerModel::paper_simulation();
  double prev = -1.0;
  for (int i = 0; i <= 10; ++i) {
    const double p = m.power(i / 10.0).value();
    EXPECT_GT(p, prev);
    prev = p;
  }
}

// The testbed calibration must reproduce the paper's own worked example:
// three servers at (80, 40, 20)% draw ~580 W, and consolidating the third
// away (its load re-hosted, its idle power eliminated) saves ~27.5%.
TEST(ServerPowerModel, PaperTestbedConsolidationArithmetic) {
  const auto m = ServerPowerModel::paper_testbed();
  const double before =
      (m.power(0.8) + m.power(0.4) + m.power(0.2)).value();
  EXPECT_NEAR(before, 580.0, 1.0);
  // After consolidation the same 1.4 total utilization runs on two servers.
  const double after = (m.power(1.0) + m.power(0.4)).value();
  const double saving = (before - after) / before;
  EXPECT_NEAR(saving, 0.275, 0.005);
}

TEST(ServerPowerModel, PaperTestbedTableIValues) {
  const auto m = ServerPowerModel::paper_testbed();
  EXPECT_NEAR(m.power(0.0).value(), 159.5, 1e-9);
  EXPECT_NEAR(m.power(1.0).value(), 232.0, 1e-9);
  EXPECT_NEAR(m.power(0.6).value(), 203.0, 1e-9);
}

}  // namespace
}  // namespace willow::power
