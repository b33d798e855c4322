// Integration tests of the full simulator against the qualitative claims of
// Section V-B.  Exact numbers are seed-dependent; the *shapes* are not.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <string>

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig base_config(double utilization) {
  SimConfig cfg;
  cfg.datacenter = DatacenterOptions{};
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = utilization;
  cfg.warmup_ticks = 15;
  cfg.measure_ticks = 60;
  cfg.seed = 17;
  return cfg;
}

TEST(Simulation, RunsAndRecords) {
  auto result = run_simulation(base_config(0.4));
  EXPECT_EQ(result.ticks, 60);
  EXPECT_EQ(result.servers.size(), 18u);
  EXPECT_EQ(result.level1_switches.size(), 6u);
  EXPECT_EQ(result.migrations_per_tick.size(), 60u);
  EXPECT_GT(result.total_power.stats().mean(), 0.0);
}

TEST(Simulation, RunIsSingleShot) {
  Simulation sim(base_config(0.3));
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, DeterministicForSeed) {
  auto a = run_simulation(base_config(0.4));
  auto b = run_simulation(base_config(0.4));
  EXPECT_DOUBLE_EQ(a.total_power.stats().mean(), b.total_power.stats().mean());
  EXPECT_EQ(a.controller_stats.total_migrations(),
            b.controller_stats.total_migrations());
}

TEST(Simulation, ThermalLimitsNeverViolated) {
  // The paper: "The thermal constraints were never violated in the
  // simulations or experiments in any component."
  for (double u : {0.2, 0.5, 0.8}) {
    auto cfg = base_config(u);
    cfg.datacenter.ambient_overrides.assign(18, 25_degC);
    for (int i = 14; i < 18; ++i) cfg.datacenter.ambient_overrides[i] = 40_degC;
    auto result = run_simulation(cfg);
    EXPECT_FALSE(result.thermal_violation) << "utilization " << u;
    EXPECT_LE(result.max_temperature_c, 70.5) << "utilization " << u;
  }
}

TEST(Simulation, HotZoneServersDrawLessPower) {
  // Fig. 5: servers 15-18 (Ta = 40) consume less than servers 1-14.
  auto cfg = base_config(0.6);
  cfg.datacenter.ambient_overrides.assign(18, 25_degC);
  for (int i = 14; i < 18; ++i) cfg.datacenter.ambient_overrides[i] = 40_degC;
  auto result = run_simulation(cfg);
  double cold = 0.0, hot = 0.0;
  for (int i = 0; i < 14; ++i) cold += result.servers[i].consumed_power.mean();
  for (int i = 14; i < 18; ++i) hot += result.servers[i].consumed_power.mean();
  cold /= 14.0;
  hot /= 4.0;
  EXPECT_LT(hot, cold);
  EXPECT_FALSE(result.thermal_violation);
}

TEST(Simulation, HotZoneTemperatureGapNarrowsWithUtilization) {
  // Fig. 6: at low utilization hot-zone servers sit near their (higher)
  // ambient; as utilization grows, every server warms toward the limit and
  // the gap narrows.
  auto make = [](double u) {
    auto cfg = base_config(u);
    cfg.datacenter.ambient_overrides.assign(18, 25_degC);
    for (int i = 14; i < 18; ++i) cfg.datacenter.ambient_overrides[i] = 40_degC;
    return run_simulation(cfg);
  };
  auto low = make(0.15);
  auto high = make(0.85);
  auto gap = [](const SimResult& r) {
    double cold = 0.0, hot = 0.0;
    for (int i = 0; i < 14; ++i) cold += r.servers[i].temperature.mean();
    for (int i = 14; i < 18; ++i) hot += r.servers[i].temperature.mean();
    return hot / 4.0 - cold / 14.0;
  };
  EXPECT_GT(gap(low), gap(high));
}

TEST(Simulation, ConsolidationSleepsServersAtLowUtilization) {
  auto cfg = base_config(0.15);
  auto result = run_simulation(cfg);
  double total_asleep = 0.0;
  for (const auto& s : result.servers) total_asleep += s.asleep_fraction;
  EXPECT_GT(total_asleep, 0.5);  // at least some consolidation happened
  EXPECT_GT(result.controller_stats.consolidation_migrations, 0u);
}

TEST(Simulation, HighUtilizationLeavesNoRoomToConsolidate) {
  auto cfg = base_config(0.85);
  auto result = run_simulation(cfg);
  double total_asleep = 0.0;
  for (const auto& s : result.servers) total_asleep += s.asleep_fraction;
  EXPECT_LT(total_asleep, 2.0);  // nearly everything stays awake
}

TEST(Simulation, SupplyProfileIsApplied) {
  auto cfg = base_config(0.5);
  cfg.supply = std::make_shared<power::ConstantSupply>(400_W);
  auto result = run_simulation(cfg);
  EXPECT_NEAR(result.supply_series.stats().mean(), 400.0, 1e-9);
  // Consumption respects the cap.
  EXPECT_LE(result.total_power.stats().max(), 400.0 + 1e-6);
}

TEST(Simulation, SwitchTrafficGrowsWithUtilization) {
  auto low = run_simulation(base_config(0.2));
  auto high = run_simulation(base_config(0.8));
  auto mean_traffic = [](const SimResult& r) {
    double t = 0.0;
    for (const auto& s : r.level1_switches) t += s.traffic.mean();
    return t / static_cast<double>(r.level1_switches.size());
  };
  EXPECT_GT(mean_traffic(high), mean_traffic(low));
}

TEST(Simulation, UpsSmoothsSupplyDips) {
  // 18 servers at ~28 W sustainable each: ~500 W envelope; a one-period dip
  // well below the demand floor gets bridged by the UPS battery. The dip must
  // sit clearly under the sampled demand at that tick or the UPS has nothing
  // to bridge and the assertion becomes seed-sensitive.
  auto cfg = base_config(0.5);
  std::vector<util::Watts> levels(40, 480_W);
  levels[20] = 150_W;  // single-period dip
  cfg.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 35;

  auto without = run_simulation(cfg);

  auto cfg2 = base_config(0.5);
  cfg2.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg2.warmup_ticks = 5;
  cfg2.measure_ticks = 35;
  cfg2.ups = power::Ups(util::Joules{600.0}, 300_W, 100_W, 1.0);
  auto with = run_simulation(cfg2);

  EXPECT_GT(with.supply_series.stats().min(),
            without.supply_series.stats().min());
}

// The tick loop's promises: one profile call per tick, and the phase
// instruments registered and counted as documented.
class CountingIntensity final : public workload::IntensityProfile {
 public:
  [[nodiscard]] double at(util::Seconds) const override {
    ++calls;
    return 1.0;
  }
  mutable long calls = 0;
};

class CountingSupply final : public power::SupplyProfile {
 public:
  [[nodiscard]] util::Watts at(util::Seconds) const override {
    ++calls;
    return 480_W;
  }
  mutable long calls = 0;
};

const obs::MetricsSnapshot::TimerValue* find_timer(
    const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& t : m.timers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

bool has_counter(const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) return true;
  }
  return false;
}

std::uint64_t timer_count(const obs::MetricsSnapshot& m,
                          const std::string& name) {
  const auto* t = find_timer(m, name);
  EXPECT_NE(t, nullptr) << name << " not registered";
  return t != nullptr ? t->count : 0;
}

TEST(SimulationTickLoop, ProfilesAreQueriedOncePerTick) {
  auto cfg = base_config(0.5);
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 12;
  auto intensity = std::make_shared<CountingIntensity>();
  auto supply = std::make_shared<CountingSupply>();
  cfg.intensity = intensity;
  cfg.supply = supply;
  (void)run_simulation(cfg);
  EXPECT_EQ(intensity->calls, 17);
  EXPECT_EQ(supply->calls, 17);
}

TEST(SimulationTickLoop, PhaseTimersCountTheirTicks) {
  auto cfg = base_config(0.5);
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 12;
  const auto m = run_simulation(cfg).metrics;
  for (const char* all : {"sim.phase.demand", "sim.phase.controller",
                          "sim.phase.thermal"}) {
    EXPECT_EQ(timer_count(m, all), 17u) << all;
  }
  for (const char* measured : {"sim.phase.controller.measured",
                               "sim.phase.record", "sim.phase.tick.measured"}) {
    EXPECT_EQ(timer_count(m, measured), 12u) << measured;
  }
  // No churn and no fault sampling: registered, never run.
  EXPECT_EQ(timer_count(m, "sim.phase.sample"), 0u);
  EXPECT_EQ(timer_count(m, "sim.phase.churn"), 0u);
  // An unarmed fault plane registers nothing.
  EXPECT_EQ(find_timer(m, "sim.phase.fault"), nullptr);
  for (const auto& c : m.counters) {
    EXPECT_NE(c.name.rfind("fault.", 0), 0u) << c.name;
  }
}

TEST(SimulationTickLoop, ArmedFaultPlaneTimesEveryTick) {
  auto cfg = base_config(0.5);
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 12;
  cfg.faults.crash_probability = 0.01;
  const auto m = run_simulation(cfg).metrics;
  EXPECT_EQ(timer_count(m, "sim.phase.fault"), 17u);
  EXPECT_EQ(timer_count(m, "sim.phase.sample"), 17u);
  for (const char* c : {"fault.crashes", "fault.restarts",
                        "fault.sensor_faults", "fault.sensor_recoveries"}) {
    EXPECT_TRUE(has_counter(m, c)) << c;
  }
}

}  // namespace
}  // namespace willow::sim
