// Demand-side adaptation (Sec. IV-E): deficit-driven migrations, locality
// preference, margins, the unidirectional rule, dropping and revival.
#include <gtest/gtest.h>

#include "core/controller.h"

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
  NodeId root, rack0, rack1, s00, s01, s10, s11;
  workload::AppIdAllocator ids;

  Fixture() {
    root = cluster.add_root("dc");
    rack0 = cluster.add_group(root, "rack0");
    rack1 = cluster.add_group(root, "rack1");
    s00 = cluster.add_server(rack0, "s00", lax_server());
    s01 = cluster.add_server(rack0, "s01", lax_server());
    s10 = cluster.add_server(rack1, "s10", lax_server());
    s11 = cluster.add_server(rack1, "s11", lax_server());
  }

  workload::AppId host(NodeId server, double watts) {
    const auto id = ids.next();
    cluster.place(Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }

  /// Capacity-proportional config: identical servers get equal budgets, so a
  /// demand skew directly creates one deficit and one surplus.
  ControllerConfig config() {
    ControllerConfig cfg;
    cfg.margin = 5_W;
    cfg.migration_cost = 2_W;
    cfg.allocation = AllocationPolicy::kProportionalToCapacity;
    return cfg;
  }
};

TEST(DemandAdaptation, DeficitTriggersLocalMigration) {
  Fixture f;
  // Equal budgets of 75 per server under supply 300.  s00 wants 110:
  // deficit 35; one 50 W app moves to the idle sibling.
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  Controller ctl(f.cluster, f.config());
  ctl.tick(300_W);
  const auto& recs = ctl.migrations_this_tick();
  ASSERT_FALSE(recs.empty());
  for (const auto& r : recs) {
    EXPECT_EQ(r.from, f.s00);
    EXPECT_EQ(r.to, f.s01);
    EXPECT_TRUE(r.local);
    EXPECT_EQ(r.cause, MigrationCause::kDemand);
  }
  EXPECT_GT(ctl.stats().local_migrations, 0u);
  EXPECT_EQ(ctl.stats().nonlocal_migrations, 0u);
  // Apps actually moved.
  EXPECT_LT(f.cluster.server(f.s00).apps().size(), 2u);
}

TEST(DemandAdaptation, NoMigrationWithoutDeficit) {
  // Loads above the consolidation threshold and budgets above demand:
  // nothing to do, for either adaptation path.
  Fixture f;
  f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  f.host(f.s10, 100.0);
  f.host(f.s11, 100.0);
  Controller ctl(f.cluster, f.config());
  for (int t = 0; t < 10; ++t) ctl.tick(500_W);
  EXPECT_EQ(ctl.stats().total_migrations(), 0u);
  EXPECT_EQ(ctl.stats().drops, 0u);
}

TEST(DemandAdaptation, EscalatesToNonLocalWhenSiblingsFull) {
  Fixture f;
  // rack0: s00 overloaded, s01 also loaded (no local surplus).
  for (int i = 0; i < 4; ++i) f.host(f.s00, 50.0);
  f.host(f.s01, 100.0);
  // rack1 idle: plenty of surplus there.
  Controller ctl(f.cluster, f.config());
  ctl.tick(500_W);  // 125 W per server
  const auto& recs = ctl.migrations_this_tick();
  ASSERT_FALSE(recs.empty());
  bool crossed = false;
  for (const auto& r : recs) {
    if (r.to == f.s10 || r.to == f.s11) crossed = true;
  }
  EXPECT_TRUE(crossed);
  EXPECT_GT(ctl.stats().nonlocal_migrations, 0u);
}

TEST(DemandAdaptation, LocalPreferredWhenBothPossible) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);  // wants 110
  // Both s01 and rack1 have surplus; locality must win.
  Controller ctl(f.cluster, f.config());
  ctl.tick(400_W);  // 100 per server: s00 deficit 10, one app moves
  ASSERT_FALSE(ctl.migrations_this_tick().empty());
  for (const auto& r : ctl.migrations_this_tick()) {
    EXPECT_EQ(r.to, f.s01) << "expected local target";
    EXPECT_TRUE(r.local);
  }
  EXPECT_GT(ctl.stats().local_migrations, 0u);
}

TEST(DemandAdaptation, MarginBlocksTightFits) {
  Fixture f;
  ControllerConfig cfg = f.config();
  cfg.margin = 40_W;
  cfg.migration_cost = 2_W;
  // s00 deficit; s01 surplus is 75-10=65 < app(50)+cost(2)+margin(40): no go.
  for (int i = 0; i < 4; ++i) f.host(f.s00, 50.0);
  cfg.allow_drop = false;
  Controller ctl(f.cluster, cfg);
  ctl.tick(300_W);  // 75 per server
  for (const auto& r : ctl.migrations_this_tick()) {
    EXPECT_NE(r.to, f.s01);
  }
}

TEST(DemandAdaptation, MigrationCostChargedToBothEndpoints) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  ControllerConfig cfg = f.config();
  cfg.migration_cost = 7_W;
  cfg.migration_cost_periods = 2;
  Controller ctl(f.cluster, cfg);
  ctl.tick(300_W);
  ASSERT_FALSE(ctl.migrations_this_tick().empty());
  // tick() ages once at the end: one period of life left.
  EXPECT_GT(f.cluster.server(f.s00).temporary_demand().value(), 0.0);
  EXPECT_GT(f.cluster.server(f.s01).temporary_demand().value(), 0.0);
}

/// Shared plunge scenario for the unidirectional-rule tests: after the cut,
/// rack1 is in deficit (s10 overloads it) yet holds idle servers s11/s12
/// with individual surplus — tempting targets the rule must forbid.
struct PlungeScenario {
  Fixture f;
  NodeId s12;

  PlungeScenario() : s12(f.cluster.add_server(f.rack1, "s12", lax_server())) {
    f.host(f.s00, 50.0);
    f.host(f.s00, 50.0);  // s00: 110 W demand
    f.host(f.s01, 60.0);  // s01: 70 W, no spare after the plunge
    f.host(f.s10, 95.0);
    f.host(f.s10, 95.0);
    f.host(f.s10, 30.0);  // s10: 230 W — pushes rack1 into aggregate deficit
    // s11 and s12 idle: 10 W each, individually in surplus after the cut.
  }

  void run(Controller& ctl) {
    ctl.tick(Watts{1000.0});  // comfortable: 200 W per server
    ctl.tick(Watts{1000.0});
    ctl.tick(Watts{1000.0});
    ctl.tick(Watts{375.0});  // ΔS plunge: 75 W per server
  }
};

TEST(DemandAdaptation, PlungeBlocksMigrationIntoDeficitSubtrees) {
  // rack1's budget both shrank and fell below its demand: nothing may
  // migrate into it.  rack0 is likewise deficient, so s10's overflow cannot
  // cross either; everything unplaceable degrades instead.
  PlungeScenario sc;
  Controller ctl(sc.f.cluster, sc.f.config());
  sc.run(ctl);
  EXPECT_TRUE(ctl.budget_reduced(sc.f.rack0));
  EXPECT_TRUE(ctl.budget_reduced(sc.f.rack1));
  for (const auto& r : ctl.migrations_this_tick()) {
    EXPECT_TRUE(r.local) << "migration crossed into a reduced, deficient rack";
  }
  EXPECT_GT(ctl.stats().drops, 0u);
  // s00's overflow app (110 > 75) could not go to idle s11/s12 across the
  // boundary: it was dropped, not moved.
  bool s00_crossed = false;
  for (const auto& r : ctl.migrations_this_tick()) {
    if (r.from == sc.f.s00 && !r.local) s00_crossed = true;
  }
  EXPECT_FALSE(s00_crossed);
}

TEST(DemandAdaptation, DisablingUnidirectionalAllowsCrossRackOnPlunge) {
  PlungeScenario sc;
  ControllerConfig cfg = sc.f.config();
  cfg.enforce_unidirectional = false;
  Controller ctl(sc.f.cluster, cfg);
  sc.run(ctl);
  bool crossed = false;
  for (const auto& r : ctl.migrations_this_tick()) {
    if (!r.local) crossed = true;
  }
  EXPECT_TRUE(crossed) << "without the rule, idle s11/s12 absorb overflow";
}

TEST(DemandAdaptation, DropsWhenNowhereToGo) {
  Fixture f;
  for (int i = 0; i < 4; ++i) f.host(f.s00, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s01, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s10, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s11, 50.0);
  Controller ctl(f.cluster, f.config());
  ctl.tick(400_W);  // 100 per server against 210 demand each: no surplus
  EXPECT_EQ(ctl.stats().total_migrations(), 0u);
  EXPECT_GT(ctl.stats().drops, 0u);
  EXPECT_GT(ctl.stats().dropped_demand.value(), 0.0);
  std::size_t dropped = 0;
  for (NodeId s : f.cluster.server_ids()) {
    for (const auto& a : f.cluster.server(s).apps()) {
      dropped += a.dropped() ? 1 : 0;
    }
  }
  EXPECT_GT(dropped, 0u);
}

TEST(DemandAdaptation, DropDisabledLeavesAppsRunning) {
  Fixture f;
  for (int i = 0; i < 4; ++i) f.host(f.s00, 50.0);
  ControllerConfig cfg = f.config();
  cfg.allow_drop = false;
  Controller ctl(f.cluster, cfg);
  ctl.tick(100_W);
  EXPECT_EQ(ctl.stats().drops, 0u);
  for (const auto& a : f.cluster.server(f.s00).apps()) {
    EXPECT_FALSE(a.dropped());
  }
}

TEST(DemandAdaptation, RevivalAfterSupplyReturns) {
  Fixture f;
  for (int i = 0; i < 4; ++i) f.host(f.s00, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s01, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s10, 50.0);
  for (int i = 0; i < 4; ++i) f.host(f.s11, 50.0);
  Controller ctl(f.cluster, f.config());
  ctl.tick(400_W);  // starvation: drops happen
  ASSERT_GT(ctl.stats().drops, 0u);
  // Supply returns; dropped apps revive (budget increase, no reduced path).
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_deterministic(1.0, nullptr);
    ctl.tick(Watts{1200.0});
  }
  EXPECT_GT(ctl.stats().revivals, 0u);
  std::size_t still_dropped = 0;
  for (NodeId s : f.cluster.server_ids()) {
    for (const auto& a : f.cluster.server(s).apps()) {
      still_dropped += a.dropped() ? 1 : 0;
    }
  }
  EXPECT_EQ(still_dropped, 0u);
}

TEST(DemandAdaptation, AppsNeverSplitAcrossServers) {
  Fixture f;
  const auto id1 = f.host(f.s00, 120.0);
  const auto id2 = f.host(f.s00, 80.0);
  Controller ctl(f.cluster, f.config());
  for (int t = 0; t < 6; ++t) ctl.tick(260_W);
  // Each app is hosted on exactly one server, wherever it landed.
  int found1 = 0, found2 = 0;
  for (NodeId s : f.cluster.server_ids()) {
    for (const auto& a : f.cluster.server(s).apps()) {
      if (a.id() == id1) ++found1;
      if (a.id() == id2) ++found2;
    }
  }
  EXPECT_EQ(found1, 1);
  EXPECT_EQ(found2, 1);
}

TEST(DemandAdaptation, MigrationSinkObservesEveryRecord) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  Controller ctl(f.cluster, f.config());
  std::size_t seen = 0;
  ctl.set_migration_sink([&](const MigrationRecord&) { ++seen; });
  ctl.tick(300_W);
  EXPECT_EQ(seen, ctl.migrations_this_tick().size());
  EXPECT_GT(seen, 0u);
}

}  // namespace
}  // namespace willow::core
