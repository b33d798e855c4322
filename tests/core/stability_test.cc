#include "core/stability.h"

#include <gtest/gtest.h>

#include "util/ewma.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;

TEST(EwmaStepResponse, ClosedFormMatchesIteration) {
  const double alpha = 0.3;
  util::Ewma<double> filter(alpha);
  filter.update(0.0);
  for (int k = 1; k <= 20; ++k) {
    filter.update(1.0);
    EXPECT_NEAR(filter.value(), ewma_step_response(alpha, k), 1e-12)
        << "period " << k;
  }
}

TEST(EwmaStepResponse, Validation) {
  EXPECT_THROW((void)ewma_step_response(0.0, 3), std::invalid_argument);
  EXPECT_THROW((void)ewma_step_response(1.5, 3), std::invalid_argument);
  EXPECT_THROW((void)ewma_step_response(0.5, -1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ewma_step_response(0.5, 0), 0.0);
  EXPECT_DOUBLE_EQ(ewma_step_response(1.0, 1), 1.0);
}

TEST(EwmaSettling, KnownValues) {
  // (1 - 0.5)^k <= 0.05 => k >= log(0.05)/log(0.5) ~ 4.32 => 5.
  EXPECT_EQ(ewma_settling_periods(0.5, 0.05), 5);
  // alpha = 0.7: (0.3)^k <= 0.05 => k >= 2.49 => 3.
  EXPECT_EQ(ewma_settling_periods(0.7, 0.05), 3);
  EXPECT_EQ(ewma_settling_periods(1.0, 0.05), 1);
}

TEST(EwmaSettling, SettledValueActuallyWithinTolerance) {
  for (double alpha : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const int k = ewma_settling_periods(alpha, 0.05);
    EXPECT_GE(ewma_step_response(alpha, k), 0.95) << "alpha " << alpha;
    EXPECT_LT(ewma_step_response(alpha, k - 1), 0.95) << "alpha " << alpha;
  }
}

TEST(EwmaSettling, Validation) {
  EXPECT_THROW((void)ewma_settling_periods(0.0, 0.05), std::invalid_argument);
  EXPECT_THROW((void)ewma_settling_periods(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)ewma_settling_periods(0.5, 1.0), std::invalid_argument);
}

TEST(StepError, ShrinksWithAlphaAndEta) {
  const auto e1 = ewma_step_error_after_supply_period(0.5, 4, 100_W);
  EXPECT_NEAR(e1.value(), 100.0 * std::pow(0.5, 4), 1e-9);
  const auto e2 = ewma_step_error_after_supply_period(0.7, 4, 100_W);
  EXPECT_LT(e2, e1);
  const auto e3 = ewma_step_error_after_supply_period(0.5, 8, 100_W);
  EXPECT_LT(e3, e1);
  EXPECT_THROW((void)ewma_step_error_after_supply_period(0.5, 0, 100_W),
               std::invalid_argument);
}

hier::Tree four_level_tree() {
  hier::Tree t(0.7);
  const auto root = t.add_root("dc");
  for (int z = 0; z < 2; ++z) {
    const auto zone = t.add_child(root, "zone");
    for (int r = 0; r < 3; ++r) {
      const auto rack = t.add_child(zone, "rack");
      for (int s = 0; s < 3; ++s) t.add_child(rack, "server");
    }
  }
  return t;
}

TEST(AssessStability, PaperParametersAreStable) {
  // The paper's Sec. V-A1 numbers: per-level update ~10 ms, Delta_D 500 ms,
  // eta1 = 4, alpha = 0.7, margin 10 W against ~3 W fluctuation.
  const auto tree = four_level_tree();
  ControllerConfig cfg;
  cfg.demand_period = Seconds{0.5};
  cfg.eta1 = 4;
  cfg.margin = 10_W;
  const auto a =
      assess_stability(tree, cfg, Seconds{0.010}, Watts{3.0}, 0.7);
  EXPECT_TRUE(a.convergence_ok);
  EXPECT_TRUE(a.estimator_ok);
  EXPECT_TRUE(a.margin_ok);
  EXPECT_TRUE(a.stable());
  EXPECT_NEAR(a.delta.value(), 0.040, 1e-12);
  EXPECT_EQ(a.estimator_settling_periods, 3);
  EXPECT_NEAR(a.margin_headroom.value(), 7.0, 1e-12);
}

TEST(AssessStability, FlagsTooShortPeriod) {
  const auto tree = four_level_tree();
  ControllerConfig cfg;
  cfg.demand_period = Seconds{0.05};  // 50 ms < 10 * 40 ms
  const auto a = assess_stability(tree, cfg, Seconds{0.010}, Watts{1.0}, 0.7);
  EXPECT_FALSE(a.convergence_ok);
  EXPECT_FALSE(a.stable());
}

TEST(AssessStability, FlagsSluggishEstimator) {
  const auto tree = four_level_tree();
  ControllerConfig cfg;
  cfg.demand_period = Seconds{1.0};
  cfg.eta1 = 4;
  // alpha = 0.1 needs ~29 periods to settle to 5%: far beyond eta1.
  const auto a = assess_stability(tree, cfg, Seconds{0.010}, Watts{1.0}, 0.1);
  EXPECT_FALSE(a.estimator_ok);
}

TEST(AssessStability, FlagsInsufficientMargin) {
  const auto tree = four_level_tree();
  ControllerConfig cfg;
  cfg.demand_period = Seconds{1.0};
  cfg.margin = 2_W;
  const auto a = assess_stability(tree, cfg, Seconds{0.010}, Watts{5.0}, 0.7);
  EXPECT_FALSE(a.margin_ok);
  EXPECT_LT(a.margin_headroom.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Property 4, behaviorally: the closed-form margin check above corresponds
// to what the controller actually does under demand jitter.

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

struct JitterFixture {
  Cluster cluster{1.0};  // alpha = 1: estimates track raw demand instantly
  NodeId root, rack0, rack1, s00, s01, s10, s11;
  workload::AppIdAllocator ids;

  JitterFixture() {
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
    cluster.place(workload::Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }

  /// Capacity-proportional budgets: supply 300 W gives every server 75 W, so
  /// a demand level maps directly to a deficit against a fixed budget.
  /// Consolidation is off — Property 4 is about the deficit-driven path, and
  /// consolidation would otherwise repack the half-idle fixture on its own
  /// eta2 cadence.
  ControllerConfig config() {
    ControllerConfig cfg;
    cfg.margin = 5_W;
    cfg.migration_cost = 2_W;
    cfg.allocation = AllocationPolicy::kProportionalToCapacity;
    cfg.consolidation_threshold = 0.0;
    return cfg;
  }
};

TEST(Property4, SubMarginJitterAfterPlacementNeverFlipFlops) {
  // A real deficit forces one corrective migration; the plan moves the
  // deficit *plus* the P_min margin, so the post-move placement holds at
  // least margin watts of slack on both ends.  Demand jitter smaller than
  // that slack can never re-create a deficit — the migration count must
  // freeze after the corrective move.
  JitterFixture f;
  f.host(f.s00, 40.0);
  // With 10 W idle power the server wants 79 W against its 75 W budget.
  const auto jitter_app = f.host(f.s00, 29.0);
  Controller ctl(f.cluster, f.config());
  ctl.tick(300_W);
  EXPECT_GT(ctl.stats().total_migrations(), 0u) << "deficit of 4 W ignored";
  const auto corrective = ctl.stats().total_migrations();

  for (int t = 0; t < 30; ++t) {
    f.cluster.find_app(jitter_app)->set_demand(t % 2 == 0 ? 29_W : 27_W);
    ctl.tick(300_W);
    EXPECT_TRUE(ctl.migrations_this_tick().empty()) << "tick " << t;
  }
  EXPECT_EQ(ctl.stats().total_migrations(), corrective)
      << "sub-margin jitter after the corrective move caused flip-flop";
}

TEST(Property4, CrossingIntoDeficitActsThenSettles) {
  // Below the budget nothing moves; a step that crosses into deficit makes
  // the controller act in that very period; the surviving sub-margin jitter
  // afterwards leaves the new placement alone.
  JitterFixture f;
  f.host(f.s00, 40.0);
  const auto jitter_app = f.host(f.s00, 20.0);  // 70 W of 75 W budget
  Controller ctl(f.cluster, f.config());
  for (int t = 0; t < 4; ++t) {
    f.cluster.find_app(jitter_app)->set_demand(t % 2 == 0 ? 20_W : 18_W);
    ctl.tick(300_W);
    EXPECT_TRUE(ctl.migrations_this_tick().empty()) << "tick " << t;
  }

  f.cluster.find_app(jitter_app)->set_demand(34_W);  // 84 W: deficit 9
  ctl.tick(300_W);
  EXPECT_GT(ctl.stats().total_migrations(), 0u) << "deficit crossing ignored";
  const auto corrective = ctl.stats().total_migrations();

  for (int t = 0; t < 30; ++t) {
    f.cluster.find_app(jitter_app)->set_demand(t % 2 == 0 ? 34_W : 32_W);
    ctl.tick(300_W);
  }
  EXPECT_EQ(ctl.stats().total_migrations(), corrective)
      << "sub-margin jitter after the corrective move caused flip-flop";
}

}  // namespace
}  // namespace willow::core
