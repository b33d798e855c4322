// Quickstart: build a small datacenter, attach the Willow controller, and
// run it through a supply plunge.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: a Cluster (PMU tree +
// servers), workload placement, the Controller, and reading back budgets,
// migrations, and temperatures.
#include <iostream>

#include "core/controller.h"
#include "util/table.h"

using namespace willow;
using namespace willow::util::literals;
using willow::util::Watts;
using willow::util::Seconds;

int main() {
  // --- 1. Describe a server: thermal RC model + power curve. -------------
  core::ServerConfig server;
  server.thermal.c1 = 0.08;           // heating coefficient
  server.thermal.c2 = 0.45;           // cooling rate (stable at full load)
  server.thermal.ambient = 25_degC;
  server.thermal.limit = 70_degC;
  server.thermal.nameplate = 450_W;
  server.power_model = power::ServerPowerModel(30_W, 450_W);

  // --- 2. Build the hierarchy: datacenter -> 2 racks -> 2 servers each. --
  core::Cluster cluster(/*smoothing_alpha=*/0.7);
  const auto root = cluster.add_root("datacenter");
  std::vector<hier::NodeId> servers;
  for (int r = 0; r < 2; ++r) {
    const auto rack = cluster.add_group(root, "rack" + std::to_string(r));
    for (int s = 0; s < 2; ++s) {
      servers.push_back(cluster.add_server(
          rack, "server" + std::to_string(r * 2 + s), server));
    }
  }

  // --- 3. Host some applications (VMs). -----------------------------------
  workload::AppIdAllocator ids;
  auto host = [&](hier::NodeId where, double watts) {
    cluster.place(workload::Application(ids.next(), 0, Watts{watts}, 2048_MB),
                  where);
  };
  host(servers[0], 120.0);
  host(servers[0], 90.0);
  host(servers[1], 60.0);
  host(servers[2], 40.0);

  // --- 4. Attach the controller. ------------------------------------------
  core::ControllerConfig config;
  config.margin = 10_W;          // P_min: post-migration surplus floor
  config.migration_cost = 5_W;   // temporary demand per migration
  config.allocation = core::AllocationPolicy::kProportionalToCapacity;
  core::Controller controller(cluster, config);
  controller.set_migration_sink([](const core::MigrationRecord& rec) {
    std::cout << "  -> migrated app " << rec.app << " from node " << rec.from
              << " to node " << rec.to << " (" << rec.size.value() << " W, "
              << (rec.local ? "local" : "non-local") << ")\n";
  });

  // --- 5. Run 20 demand periods; the supply plunges at t = 10. ------------
  util::Table table({"tick", "supply_W", "budget_s0_W", "budget_s1_W",
                     "budget_s2_W", "budget_s3_W", "migrations"});
  table.set_precision(1);
  for (int t = 0; t < 20; ++t) {
    const Watts supply{t < 10 ? 1200.0 : 700.0};
    cluster.refresh_demands_deterministic(1.0, nullptr);
    controller.tick(supply);
    cluster.step_thermal(1_s);
    auto& tr = cluster.tree();
    table.row()
        .add(t)
        .add(supply.value())
        .add(tr.node(servers[0]).budget().value())
        .add(tr.node(servers[1]).budget().value())
        .add(tr.node(servers[2]).budget().value())
        .add(tr.node(servers[3]).budget().value())
        .add(static_cast<long long>(controller.migrations_this_tick().size()));
  }
  table.print(std::cout);

  const auto& stats = controller.stats();
  std::cout << "\nTotals: " << stats.total_migrations() << " migrations ("
            << stats.local_migrations << " local, "
            << stats.nonlocal_migrations << " non-local), " << stats.drops
            << " drops, " << stats.sleeps << " sleeps\n";
  for (auto s : servers) {
    std::cout << cluster.tree().node(s).name() << ": "
              << cluster.server(s).apps().size() << " apps, "
              << cluster.server(s).thermal().temperature().value()
              << " degC\n";
  }
  return 0;
}
