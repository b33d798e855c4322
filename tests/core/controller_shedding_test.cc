// Shedding policies: priority-ordered drops, degraded operational modes
// (Sec. I: shutting down low-priority tasks / altering the computation), and
// the priority-ordered restoration path.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "workload/mix.h"

#include <set>

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

ServerConfig lax_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 1e-4;
  cfg.thermal.c2 = 1.0;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel(10_W, 450_W);
  return cfg;
}

struct Fixture {
  Cluster cluster{1.0};
  NodeId root, rack, s00, s01;
  workload::AppIdAllocator ids;

  Fixture() {
    root = cluster.add_root("dc");
    rack = cluster.add_group(root, "rack");
    s00 = cluster.add_server(rack, "s00", lax_server());
    s01 = cluster.add_server(rack, "s01", lax_server());
  }

  workload::AppId host(NodeId server, double watts, int priority) {
    const auto id = ids.next();
    Application app(id, 0, Watts{watts}, 512_MB);
    app.set_priority(priority);
    cluster.place(std::move(app), server);
    return id;
  }

  ControllerConfig config() {
    ControllerConfig cfg;
    cfg.margin = 5_W;
    cfg.migration_cost = 2_W;
    cfg.allocation = AllocationPolicy::kProportionalToCapacity;
    return cfg;
  }
};

TEST(ApplicationServiceLevel, Validation) {
  Application a(1, 0, 100_W, 512_MB);
  EXPECT_THROW(a.set_service_level(-0.1), std::invalid_argument);
  EXPECT_THROW(a.set_service_level(1.1), std::invalid_argument);
  a.set_service_level(0.5);
  EXPECT_TRUE(a.degraded());
  EXPECT_DOUBLE_EQ(a.effective_mean_power().value(), 50.0);
  a.set_service_level(1.0);
  EXPECT_FALSE(a.degraded());
}

TEST(ApplicationServiceLevel, DemandGeneratorsUseEffectiveMean) {
  Application a(1, 0, 100_W, 512_MB);
  a.set_service_level(0.25);
  workload::ConstantDemand::refresh(a);
  EXPECT_DOUBLE_EQ(a.demand().value(), 25.0);
}

TEST(ConfigValidation, DegradedServiceLevelRange) {
  ControllerConfig cfg;
  cfg.degraded_service_level = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.degraded_service_level = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.degraded_service_level = 0.5;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Shedding, LowPriorityDroppedFirst) {
  // Both servers saturated so nothing migrates; the deficit forces shedding.
  Fixture f;
  const auto critical = f.host(f.s00, 60.0, /*priority=*/0);
  const auto best_effort = f.host(f.s00, 60.0, /*priority=*/2);
  f.host(f.s01, 120.0, 1);
  Controller ctl(f.cluster, f.config());
  // 80 W each against ~130 W demand: deficit ~50 on s00; one 60 W app
  // covers it — the priority-2 one must be the casualty.
  ctl.tick(160_W);
  const Application* crit = f.cluster.find_app(critical);
  const Application* best = f.cluster.find_app(best_effort);
  ASSERT_NE(crit, nullptr);
  ASSERT_NE(best, nullptr);
  EXPECT_FALSE(crit->dropped());
  EXPECT_TRUE(best->dropped());
}

TEST(Shedding, DegradeThenDropPrefersServiceReduction) {
  Fixture f;
  const auto a1 = f.host(f.s00, 60.0, 1);
  const auto a2 = f.host(f.s00, 60.0, 1);
  f.host(f.s01, 120.0, 1);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  cfg.degraded_service_level = 0.5;
  Controller ctl(f.cluster, cfg);
  // s00 deficit ~50 W; degrading both 60 W apps to 50% releases 60 W: enough.
  ctl.tick(160_W);
  const Application* p1 = f.cluster.find_app(a1);
  const Application* p2 = f.cluster.find_app(a2);
  EXPECT_FALSE(p1->dropped());
  EXPECT_FALSE(p2->dropped());
  EXPECT_TRUE(p1->degraded() || p2->degraded());
  EXPECT_GT(ctl.stats().degrades, 0u);
  EXPECT_EQ(ctl.stats().drops, 0u);
  EXPECT_GT(ctl.stats().degraded_demand.value(), 0.0);
}

TEST(Shedding, DegradationInsufficientFallsBackToDrop) {
  Fixture f;
  f.host(f.s00, 100.0, 1);
  f.host(f.s01, 100.0, 1);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  cfg.degraded_service_level = 0.9;  // releases only 10 W per app
  Controller ctl(f.cluster, cfg);
  ctl.tick(100_W);  // 50 W each against 110 W demand: deficit 60 W
  EXPECT_GT(ctl.stats().degrades, 0u);
  EXPECT_GT(ctl.stats().drops, 0u);
}

TEST(Shedding, DegradedDemandShrinksImmediately) {
  Fixture f;
  const auto id = f.host(f.s00, 100.0, 1);
  f.host(f.s01, 100.0, 1);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  cfg.degraded_service_level = 0.5;
  Controller ctl(f.cluster, cfg);
  ctl.tick(140_W);  // deficit 40 on each server; degrade releases 50
  const Application* app = f.cluster.find_app(id);
  ASSERT_TRUE(app->degraded());
  EXPECT_DOUBLE_EQ(app->demand().value(), 50.0);
}

TEST(Restoration, ServiceLevelsRestoredUnderSurplus) {
  Fixture f;
  const auto id = f.host(f.s00, 100.0, 1);
  f.host(f.s01, 100.0, 1);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  cfg.degraded_service_level = 0.5;
  Controller ctl(f.cluster, cfg);
  ctl.tick(140_W);
  ASSERT_TRUE(f.cluster.find_app(id)->degraded());
  // Supply returns; service restored at the next supply periods.
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_deterministic(1.0, nullptr);
    ctl.tick(400_W);
  }
  EXPECT_FALSE(f.cluster.find_app(id)->degraded());
  EXPECT_GT(ctl.stats().restores, 0u);
}

TEST(Restoration, HighPriorityRevivedFirst) {
  Fixture f;
  const auto critical = f.host(f.s00, 60.0, 0);
  const auto best_effort = f.host(f.s00, 60.0, 2);
  f.host(f.s01, 120.0, 1);
  ControllerConfig cfg = f.config();
  // Keep both servers up so the partial-supply arithmetic stays exact
  // (consolidation would free an idle floor and fund the second revival).
  cfg.consolidation_threshold = 0.0;
  Controller ctl(f.cluster, cfg);
  ctl.tick(60_W);  // starve hard: both s00 apps dropped
  ASSERT_TRUE(f.cluster.find_app(critical)->dropped());
  ASSERT_TRUE(f.cluster.find_app(best_effort)->dropped());
  // Give back enough for one 60 W app on s00 (100 W budget - 10 idle -
  // 5 margin = 85 W headroom), not two.
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_deterministic(1.0, nullptr);
    ctl.tick(200_W);
  }
  EXPECT_FALSE(f.cluster.find_app(critical)->dropped());
  EXPECT_TRUE(f.cluster.find_app(best_effort)->dropped());
}

TEST(Shedding, MixAssignsPriorities) {
  workload::MixConfig cfg;
  cfg.unit_power = 10_W;
  cfg.target_mean_per_server = 200_W;
  cfg.priority_levels = 3;
  workload::AppIdAllocator ids;
  util::Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 20; ++i) {
    for (const auto& a : workload::build_mix(cfg, ids, rng)) {
      EXPECT_GE(a.priority(), 0);
      EXPECT_LT(a.priority(), 3);
      seen.insert(a.priority());
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace willow::core
