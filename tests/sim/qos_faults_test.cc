// Simulator integration of the QoS tracker and report-fault injection.
#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig base_config(double utilization) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model = power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = utilization;
  cfg.warmup_ticks = 10;
  cfg.measure_ticks = 40;
  cfg.seed = 17;
  return cfg;
}

TEST(Qos, DisabledByDefault) {
  const auto r = run_simulation(base_config(0.5));
  EXPECT_TRUE(r.qos_satisfaction.empty());
  EXPECT_TRUE(r.qos_mean_inflation.empty());
}

TEST(Qos, PlentifulSupplyWithoutConsolidationMeetsTheSla) {
  auto cfg = base_config(0.4);
  cfg.sla_inflation = 5.0;
  cfg.controller.consolidation_threshold = 0.0;  // leave servers spread out
  const auto r = run_simulation(std::move(cfg));
  ASSERT_FALSE(r.qos_satisfaction.empty());
  EXPECT_GT(r.qos_satisfaction.stats().mean(), 0.9);
  EXPECT_GE(r.qos_mean_inflation.stats().min(), 1.0);
}

TEST(Qos, ConsolidationTradesQosForPower) {
  // FFDLR's intent is "run every server at full utilization" — which is
  // precisely where M/M/1 queueing explodes.  Packed hosts save power but
  // blow the 5x SLA; this is the Sec.-I latency-power tradeoff.
  auto packed = base_config(0.4);
  packed.sla_inflation = 5.0;
  auto spread = base_config(0.4);
  spread.sla_inflation = 5.0;
  spread.controller.consolidation_threshold = 0.0;
  const auto rp = run_simulation(std::move(packed));
  const auto rs = run_simulation(std::move(spread));
  EXPECT_LT(rp.qos_satisfaction.stats().mean(),
            rs.qos_satisfaction.stats().mean());
  EXPECT_LT(rp.total_power.stats().mean(), rs.total_power.stats().mean());
}

TEST(Qos, TargetFillFractionRecoversTheSla) {
  // Derating targets to 75% of their envelope keeps consolidated hosts
  // inside the 5x SLA (80% utilization limit) at a modest power premium.
  // Low demand variance isolates the knob (Poisson swings would carry even
  // a 0.75-filled host above the 80% SLA line half the time).
  auto full = base_config(0.4);
  full.sla_inflation = 5.0;
  full.demand_quantum = util::Watts{0.25};
  auto derated = base_config(0.4);
  derated.sla_inflation = 5.0;
  derated.demand_quantum = util::Watts{0.25};
  derated.controller.target_fill_fraction = 0.75;
  const auto rf = run_simulation(std::move(full));
  const auto rd = run_simulation(std::move(derated));
  EXPECT_GT(rd.qos_satisfaction.stats().mean(),
            rf.qos_satisfaction.stats().mean());
  EXPECT_GT(rd.qos_satisfaction.stats().mean(), 0.8);
}

TEST(Qos, FillFractionValidation) {
  core::ControllerConfig cfg;
  cfg.target_fill_fraction = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.target_fill_fraction = 1.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.target_fill_fraction = 0.8;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Qos, DeficiencyDegradesSatisfaction) {
  auto plenty = base_config(0.5);
  plenty.sla_inflation = 5.0;
  auto starved = base_config(0.5);
  starved.sla_inflation = 5.0;
  starved.supply =
      std::make_shared<power::ConstantSupply>(Watts{28.125 * 18.0 * 0.5});
  const auto rp = run_simulation(std::move(plenty));
  const auto rs = run_simulation(std::move(starved));
  EXPECT_LT(rs.qos_satisfaction.stats().mean(),
            rp.qos_satisfaction.stats().mean());
  EXPECT_GT(rs.qos_mean_inflation.stats().mean(),
            rp.qos_mean_inflation.stats().mean());
}

TEST(Faults, ReportLossKeepsLeafStale) {
  core::Cluster cluster(1.0);
  const auto root = cluster.add_root("dc");
  const auto rack = cluster.add_group(root, "rack");
  core::ServerConfig sc;
  sc.power_model = power::ServerPowerModel(10_W, 450_W);
  const auto s = cluster.add_server(rack, "s", sc);
  workload::AppIdAllocator ids;
  cluster.place(workload::Application(ids.next(), 0, 50_W, 512_MB), s);

  cluster.observe_leaf_demands();
  EXPECT_DOUBLE_EQ(cluster.tree().node(s).smoothed_demand().value(), 60.0);
  // The demand changes but the report is lost: the leaf stays at 60.
  cluster.find_app(1)->set_demand(100_W);
  cluster.set_report_fault(s, true);
  cluster.observe_leaf_demands();
  EXPECT_DOUBLE_EQ(cluster.tree().node(s).smoothed_demand().value(), 60.0);
  // Report restored: the leaf catches up.
  cluster.set_report_fault(s, false);
  cluster.observe_leaf_demands();
  EXPECT_DOUBLE_EQ(cluster.tree().node(s).smoothed_demand().value(), 110.0);
}

TEST(Faults, SimulatorSurvivesHeavyReportLoss) {
  auto cfg = base_config(0.5);
  cfg.report_loss_probability = 0.3;
  cfg.sla_inflation = 5.0;
  cfg.controller.consolidation_threshold = 0.0;  // isolate the fault effect
  const auto r = run_simulation(std::move(cfg));
  // The control loop stays safe and keeps serving despite 30% lost reports.
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_GT(r.total_power.stats().mean(), 0.0);
  EXPECT_GT(r.qos_satisfaction.stats().mean(), 0.8);
}

TEST(Faults, TotalReportLossStillSafe) {
  // Even if every report is lost (the controller acts on build-time state
  // forever), nothing crashes and thermal safety holds: budgets remain
  // conservative against the thermal hard limits, which are sensed locally.
  auto cfg = base_config(0.5);
  cfg.report_loss_probability = 1.0;
  const auto r = run_simulation(std::move(cfg));
  EXPECT_FALSE(r.thermal_violation);
  EXPECT_GT(r.total_power.stats().mean(), 0.0);
}

}  // namespace
}  // namespace willow::sim
