// Randomized whole-controller invariants: budget conservation, thermal
// safety, app conservation, and decision stability (Property 4).
//
// Scale note: with the paper's thermal constants the sustainable steady
// power is c2/c1 * 45 = 28.125 W per server (idle floor 10 W), so workloads
// and supplies here live on that envelope — the same scale the simulator
// uses (see sim::SimConfig).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/controller.h"
#include "util/rng.h"
#include "workload/demand.h"
#include "workload/mix.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

constexpr double kSustainableW = 28.125;      // c2/c1 * (70 - 25)
constexpr double kSustainableDynamicW = 18.125;  // minus the 10 W idle floor

ServerConfig paper_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 0.08;
  cfg.thermal.c2 = 0.05;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel(10_W, 450_W);
  return cfg;
}

struct RandomPlant {
  Cluster cluster{0.7};
  std::vector<NodeId> servers;
  workload::AppIdAllocator ids;
  std::set<workload::AppId> all_apps;

  /// Each server gets a random offered load in [util_lo, util_hi] of the
  /// sustainable dynamic envelope.
  RandomPlant(util::Rng& rng, double util_lo, double util_hi) {
    const NodeId root = cluster.add_root("dc");
    const int racks = rng.uniform_int(2, 4);
    for (int r = 0; r < racks; ++r) {
      const NodeId rack = cluster.add_group(root, "rack");
      const int n = rng.uniform_int(2, 4);
      for (int s = 0; s < n; ++s) {
        servers.push_back(cluster.add_server(rack, "srv", paper_server()));
      }
    }
    workload::MixConfig mix;
    mix.unit_power = 1_W;
    for (NodeId s : servers) {
      mix.target_mean_per_server =
          Watts{kSustainableDynamicW * rng.uniform(util_lo, util_hi)};
      for (auto& app : workload::build_mix(mix, ids, rng)) {
        all_apps.insert(app.id());
        cluster.place(std::move(app), s);
      }
    }
  }

  [[nodiscard]] double capacity() const {
    return kSustainableW * static_cast<double>(servers.size());
  }
};

void check_invariants(const Cluster& cluster,
                      const std::set<workload::AppId>& all_apps) {
  const auto& tree = cluster.tree();
  // Budgets nest.
  for (NodeId id : tree.all_nodes()) {
    const auto& n = tree.node(id);
    if (n.is_leaf()) continue;
    double child_sum = 0.0;
    for (NodeId c : n.children()) child_sum += tree.node(c).budget().value();
    ASSERT_LE(child_sum, n.budget().value() + 1e-6);
  }
  // Every app hosted exactly once; thermal ceilings respected.
  std::multiset<workload::AppId> hosted;
  for (NodeId s : cluster.server_ids()) {
    const auto& srv = cluster.server(s);
    for (const auto& a : srv.apps()) hosted.insert(a.id());
    ASSERT_LE(srv.thermal().temperature().value(),
              srv.thermal().params().limit.value() + 0.5)
        << "thermal violation on server " << s;
    if (srv.asleep()) {
      ASSERT_TRUE(srv.apps().empty());
      ASSERT_FALSE(tree.node(s).active());
    }
  }
  ASSERT_EQ(hosted.size(), all_apps.size());
  for (workload::AppId id : all_apps) ASSERT_EQ(hosted.count(id), 1u);
}

class ControllerRandom : public ::testing::TestWithParam<unsigned long long> {
};

TEST_P(ControllerRandom, InvariantsHoldUnderPoissonLoadAndSupplyWalk) {
  util::Rng rng(GetParam());
  RandomPlant plant(rng, 0.2, 0.8);
  ControllerConfig cfg;
  cfg.margin = 1.5_W;
  cfg.migration_cost = 0.5_W;
  cfg.utilization_reference = UtilizationReference::kThermalSustainable;
  Controller ctl(plant.cluster, cfg);
  workload::PoissonDemand demand(Watts{0.25});

  double supply = plant.capacity() * 0.9;
  for (int t = 0; t < 120; ++t) {
    // Random walk on supply with occasional plunges/recoveries.
    if (rng.chance(0.1)) supply = plant.capacity() * rng.uniform(0.4, 1.1);
    plant.cluster.refresh_demands(demand, GetParam(), t, 1.0, nullptr);
    ctl.tick(Watts{supply});
    plant.cluster.step_thermal(1_s);
    check_invariants(plant.cluster, plant.all_apps);
  }
}

TEST_P(ControllerRandom, Property4NoPingPongUnderBoundedFluctuation) {
  // Margins absorb fluctuations smaller than P_min: once migrated, a demand
  // stays put for at least delta_f periods (Sec. V-A3, Property 4).
  util::Rng rng(GetParam() + 500);
  RandomPlant plant(rng, 0.15, 0.85);  // heterogeneous loads
  ControllerConfig cfg;
  cfg.margin = 3_W;  // generous P_min vs ~0.5 W aggregate fluctuation
  cfg.migration_cost = 0.5_W;
  cfg.allocation = AllocationPolicy::kProportionalToCapacity;
  cfg.utilization_reference = UtilizationReference::kThermalSustainable;
  Controller ctl(plant.cluster, cfg);
  workload::PoissonDemand demand(Watts{0.1});  // tiny quanta: low variance

  std::map<workload::AppId, long> last_move;
  const long delta_f = 3;
  long violations = 0;
  for (int t = 0; t < 100; ++t) {
    plant.cluster.refresh_demands(demand, GetParam() + 500, t, 1.0, nullptr);
    // Constant supply after a plunge at t=10 (one tightening event).
    const double frac = t < 10 ? 1.0 : 0.75;
    ctl.tick(Watts{plant.capacity() * frac});
    plant.cluster.step_thermal(1_s);
    for (const auto& rec : ctl.migrations_this_tick()) {
      auto it = last_move.find(rec.app);
      if (it != last_move.end() && ctl.tick_count() - it->second < delta_f) {
        ++violations;
      }
      last_move[rec.app] = ctl.tick_count();
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(ControllerRandom, DroppedDemandAccountingIsConsistent) {
  util::Rng rng(GetParam() + 900);
  RandomPlant plant(rng, 0.4, 0.8);
  ControllerConfig cfg;
  cfg.margin = 1_W;
  cfg.migration_cost = 0.5_W;
  cfg.utilization_reference = UtilizationReference::kThermalSustainable;
  Controller ctl(plant.cluster, cfg);
  for (int t = 0; t < 40; ++t) {
    plant.cluster.refresh_demands_deterministic(1.0, nullptr);
    // Persistent deep deficiency: barely above the idle floors.
    ctl.tick(Watts{11.0 * static_cast<double>(plant.servers.size())});
    plant.cluster.step_thermal(1_s);
  }
  const auto& st = ctl.stats();
  // Deep deficiency must have degraded something, and the accounting of
  // drops vs revivals must cover every currently-dropped app.
  EXPECT_GT(st.drops, 0u);
  std::size_t dropped_now = 0;
  for (NodeId s : plant.cluster.server_ids()) {
    for (const auto& a : plant.cluster.server(s).apps()) {
      dropped_now += a.dropped() ? 1 : 0;
    }
  }
  EXPECT_LE(dropped_now, st.drops);
  EXPECT_GE(st.drops, st.revivals);
  EXPECT_EQ(st.drops - st.revivals, dropped_now);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace willow::core
