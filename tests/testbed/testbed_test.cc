// The Section V-C experiments, end to end on the emulated testbed.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "thermal/calibration.h"

namespace willow::testbed {
namespace {

using namespace willow::util::literals;

/// Every recorded value of a run, each double as an exact hex float, hashed
/// with FNV-1a: a last-bit drift anywhere in the run changes the hash.
std::uint64_t fingerprint(const RunResult& r) {
  std::string s;
  const auto put = [&](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a,", v);
    s += buf;
  };
  const auto put_series = [&](const util::TimeSeries& series) {
    for (const double v : series.values()) put(v);
    s += '\n';
  };
  put_series(r.supply);
  put_series(r.migrations);
  put_series(r.temperature_a);
  put_series(r.avg_temperature);
  for (int i = 0; i < 3; ++i) {
    put_series(r.utilization[i]);
    put_series(r.consumed[i]);
    put(r.final_utilization[i]);
    s += r.asleep[i] ? "1\n" : "0\n";
  }
  const auto& st = r.stats;
  for (const std::uint64_t n :
       {st.demand_migrations, st.consolidation_migrations, st.local_migrations,
        st.nonlocal_migrations, st.drops, st.revivals, st.degrades,
        st.restores, st.sleeps, st.wakes}) {
    s += std::to_string(n) + ',';
  }
  put(st.dropped_demand.value());
  put(st.degraded_demand.value());
  s += r.ping_pong ? "1" : "0";
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TestbedSetup, ThreeServersTwoSwitches) {
  Testbed tb;
  EXPECT_EQ(tb.cluster().server_ids().size(), 3u);
  EXPECT_EQ(tb.cluster().tree().height(), 3);
  // A and B share switch1, C hangs off switch2 (Fig. 13 shape).
  const auto& tree = tb.cluster().tree();
  EXPECT_EQ(tree.node(tb.server(0)).parent(), tree.node(tb.server(1)).parent());
  EXPECT_NE(tree.node(tb.server(0)).parent(), tree.node(tb.server(2)).parent());
}

TEST(TestbedSetup, PlantThermalIsStable) {
  const auto p = testbed_thermal_params();
  // Steady state at full load stays under the 70 degC limit.
  thermal::ThermalModel m(p);
  const double steady = m.steady_state(232_W).value();
  EXPECT_LT(steady, 70.0);
  EXPECT_GT(steady, 50.0);  // but the server does run warm
}

TEST(Table1, PowerIncreasesLinearlyWithUtilization) {
  const std::vector<double> utils{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const auto rows = table1_measurements(utils);
  ASSERT_EQ(rows.size(), 6u);
  // Continuously increasing (Sec. V-C2), ~159.5 W static, ~232 W at 100%.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].second.value(), rows[i - 1].second.value());
  }
  EXPECT_NEAR(rows.front().second.value(), 159.5, 3.0);
  EXPECT_NEAR(rows.back().second.value(), 232.0, 3.0);
}

TEST(Table2, ApplicationProfilesMatchPaper) {
  const auto rows = profile_applications();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "A1");
  EXPECT_NEAR(rows[0].second.value(), 8.0, 2.0);
  EXPECT_NEAR(rows[1].second.value(), 10.0, 2.0);
  EXPECT_NEAR(rows[2].second.value(), 15.0, 2.0);
}

TEST(Fig14, CalibrationRecoversPaperConstants) {
  // The paper's estimation procedure: run a power schedule, record the
  // sensor, fit the RC model; the fitted values are c1 = 0.2, c2 = 0.008.
  const auto truth = paper_fitted_thermal_params();
  const auto trace = thermal::synthesize_trace(
      truth, {20_W, 50_W, 80_W, 40_W, 65_W}, 8_s, 0.5_s, 0.2, 77);
  const auto fit = thermal::fit_thermal_constants(trace, truth.ambient);
  EXPECT_NEAR(fit.c1, 0.2, 0.04);
  EXPECT_NEAR(fit.c2, 0.008, 0.01);
}

TEST(LoadUtilizations, ComposesAppsNearTargets) {
  Testbed tb;
  tb.load_utilizations(0.8, 0.4, 0.2);
  const auto util_of = [&](std::size_t i) {
    double w = 0.0;
    for (const auto& a : tb.cluster().server(tb.server(i)).apps()) {
      w += a.mean_power().value();
    }
    return w / 72.5;
  };
  EXPECT_NEAR(util_of(0), 0.8, 0.11);
  EXPECT_NEAR(util_of(1), 0.4, 0.11);
  EXPECT_NEAR(util_of(2), 0.2, 0.11);
}

TEST(EnergyDeficientRun, MigrationsSpikeAtPlungesAndStayQuietBetween) {
  // Fig. 15 + Fig. 16: plunge at t=7 triggers migrations; none between t=8
  // and t=10 although the plunge persists (decision stability).
  Testbed tb;
  tb.load_utilizations(0.8, 0.6, 0.3);  // 60% average
  const auto supply = power::paper_fig15_trace();
  const auto result = tb.run(*supply, 30);

  double during_plunge = 0.0;
  for (std::size_t t = 7; t <= 7; ++t) during_plunge += result.migrations.at(t);
  EXPECT_GT(during_plunge, 0.0) << "plunge at t=7 must trigger migrations";

  double after_plunge = 0.0;
  for (std::size_t t = 8; t <= 10; ++t) after_plunge += result.migrations.at(t);
  EXPECT_DOUBLE_EQ(after_plunge, 0.0)
      << "margins must keep decisions stable through the plunge";

  EXPECT_FALSE(result.ping_pong);
}

TEST(EnergyDeficientRun, NoMigrationsOnRecovery) {
  // "the migrations in Willow are always initiated by the tightening of
  // power constraints and not by their loosening" (constraint-driven only;
  // consolidation may still act at low utilization, absent here at 60%).
  Testbed tb;
  tb.load_utilizations(0.8, 0.6, 0.3);
  const auto supply = power::paper_fig15_trace();
  const auto result = tb.run(*supply, 30);
  // Recovery tick t=11 (supply rises from 490 to 620): no demand-driven
  // migration burst is expected right at the rise.
  EXPECT_LE(result.migrations.at(11), result.migrations.at(7));
}

TEST(EnergyDeficientRun, TemperaturesStayUnderLimit) {
  Testbed tb;
  tb.load_utilizations(0.8, 0.6, 0.3);
  const auto supply = power::paper_fig15_trace();
  const auto result = tb.run(*supply, 30);
  EXPECT_LT(result.temperature_a.stats().max(), 70.5);
  EXPECT_LT(result.avg_temperature.stats().max(), 70.5);
  // And the loaded server does run visibly above ambient.
  EXPECT_GT(result.temperature_a.stats().mean(), 26.0);
}

TEST(EnergyPlentyRun, ConsolidationShutsDownServerC) {
  // Sec. V-C5 / Table III: at (80, 40, 20)% with plenty of supply, server C
  // is drained and shut down; A and B absorb its load; C never wakes.
  TestbedConfig cfg;
  Testbed tb(cfg);
  tb.load_utilizations(0.8, 0.4, 0.2);
  const auto supply = power::paper_fig19_trace();
  const auto result = tb.run(*supply, 30);
  EXPECT_TRUE(result.asleep[2]) << "server C must be shut down";
  EXPECT_NEAR(result.final_utilization[2], 0.0, 1e-9);
  EXPECT_FALSE(result.asleep[0]);
  EXPECT_FALSE(result.asleep[1]);
  // A and B together carry the ~1.4 total utilization.
  EXPECT_GT(result.final_utilization[0] + result.final_utilization[1], 1.2);
  EXPECT_GT(result.stats.consolidation_migrations, 0u);
  EXPECT_EQ(result.stats.wakes, 0u);
}

TEST(EnergyPlentyRun, PowerSavingsAroundPaperNumber) {
  // The paper's arithmetic: ~580 W without consolidation, ~27.5% saved by
  // shutting server C down (standby ~0 W).
  TestbedConfig cfg;
  Testbed tb(cfg);
  tb.load_utilizations(0.8, 0.4, 0.2);
  const auto supply = power::paper_fig19_trace();
  const auto result = tb.run(*supply, 30);
  ASSERT_TRUE(result.asleep[2]);
  const double before = 580.0;
  double after = 0.0;
  for (int i = 0; i < 3; ++i) {
    after += result.consumed[i].mean_between(20.0, 30.0);
  }
  const double saving = (before - after) / before;
  EXPECT_NEAR(saving, 0.275, 0.06);
}

// The two Sec. V-C runs pinned to the bit, so a change to the testbed's
// demand refresh or to the controller that moves any recorded value fails
// here rather than only in the bench output.
TEST(EnergyDeficientRun, ResultsArePinned) {
  Testbed tb;
  tb.load_utilizations(0.8, 0.6, 0.3);
  const auto result = tb.run(*power::paper_fig15_trace(), 30);
  EXPECT_EQ(fingerprint(result), 0xfd37fd0c759bcb86ull)
      << std::hex << fingerprint(result);
}

TEST(EnergyPlentyRun, ResultsArePinned) {
  Testbed tb;
  tb.load_utilizations(0.8, 0.4, 0.2);
  const auto result = tb.run(*power::paper_fig19_trace(), 30);
  EXPECT_EQ(fingerprint(result), 0xb68762e4750f12d9ull)
      << std::hex << fingerprint(result);
}

TEST(Run, PowerNoiseReachesConsumedPower) {
  // The noisy per-app demands must reach what the servers report and draw,
  // not stay hidden behind the refresh's noiseless demand cache.
  const auto consumed_a = [](double noise_w) {
    TestbedConfig cfg;
    cfg.power_noise_w = noise_w;
    Testbed tb(cfg);
    tb.load_utilizations(0.8, 0.6, 0.3);
    return tb.run(*power::paper_fig19_trace(), 30).consumed[0];
  };
  const auto quiet = consumed_a(0.0);
  const auto noisy = consumed_a(1.5);
  ASSERT_EQ(quiet.size(), noisy.size());
  std::size_t differ = 0;
  for (std::size_t t = 0; t < quiet.size(); ++t) {
    if (quiet.at(t) != noisy.at(t)) ++differ;
  }
  EXPECT_GT(differ, 0u);
}

TEST(Run, SupplySeriesEchoesTrace) {
  Testbed tb;
  tb.load_utilizations(0.5, 0.5, 0.5);
  const auto supply = power::paper_fig15_trace();
  const auto result = tb.run(*supply, 30);
  ASSERT_EQ(result.supply.size(), 30u);
  EXPECT_DOUBLE_EQ(result.supply.at(7), 610.0);
  EXPECT_DOUBLE_EQ(result.supply.at(0), 680.0);
}

}  // namespace
}  // namespace willow::testbed
