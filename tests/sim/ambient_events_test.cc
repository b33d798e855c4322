// Scheduled ambient changes: heat waves arrive, Willow adapts, nothing
// exceeds the thermal limit, and service recovers afterwards.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig base_config() {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.6;
  cfg.warmup_ticks = 0;
  cfg.measure_ticks = 80;
  cfg.seed = 17;
  return cfg;
}

TEST(AmbientEvents, AppliedAtTheScheduledTick) {
  auto cfg = base_config();
  cfg.ambient_events = {{10, 0, 2, 45_degC}};
  Simulation sim(std::move(cfg));
  const auto r = sim.run();
  (void)r;
  auto& cluster = sim.datacenter().cluster;
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(cluster.server(sim.datacenter().servers[i])
                         .thermal()
                         .params()
                         .ambient.value(),
                     45.0);
  }
  EXPECT_DOUBLE_EQ(cluster.server(sim.datacenter().servers[3])
                       .thermal()
                       .params()
                       .ambient.value(),
                   25.0);
}

TEST(AmbientEvents, HeatWaveNeverViolatesTheLimit) {
  auto cfg = base_config();
  cfg.ambient_events = {{15, 0, 17, 38_degC}, {40, 0, 17, 45_degC}};
  const auto r = run_simulation(std::move(cfg));
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_LE(r.max_temperature_c, 70.5);
}

TEST(AmbientEvents, HeatWaveReducesServedPowerThenRecovers) {
  // The thermal time constant is 1/c2 = 20 periods, so both the squeeze and
  // the recovery take a few tens of ticks to express.
  auto cfg = base_config();
  cfg.measure_ticks = 110;
  cfg.ambient_events = {{15, 0, 17, 45_degC}, {70, 0, 17, 25_degC}};
  const auto r = run_simulation(std::move(cfg));
  const double before = r.total_power.mean_between(5.0, 14.0);
  const double during = r.total_power.mean_between(50.0, 69.0);
  const double after = r.total_power.mean_between(95.0, 109.0);
  // At 45 degC ambient the sustainable envelope shrinks from ~28 to ~16 W
  // per server: the fleet must serve substantially less.
  EXPECT_LT(during, before * 0.8);
  // And recovery restores service (revival of shed demand as hosts cool).
  EXPECT_GT(after, during * 1.05);
}

TEST(AmbientEvents, OutOfRangeIndicesAreRejected) {
  auto cfg = base_config();
  cfg.measure_ticks = 10;
  cfg.ambient_events = {{2, 10, 99, 40_degC}};  // last_server beyond fleet
  try {
    run_simulation(std::move(cfg));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ambient_events[0]"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace willow::sim
