// Thermal emergency: a rack loses effective cooling mid-run (ambient jumps
// from 25 to 45 degC) and Willow drains it without violating any thermal
// limit.
//
//   $ ./thermal_emergency
//
// Exercises the coordination the paper argues for in Section III: per-server
// throttling alone would strand the rack's workload; the hierarchical scheme
// migrates it to the still-cool racks instead.
#include <iostream>

#include "core/controller.h"
#include "util/table.h"
#include "workload/demand.h"
#include "workload/mix.h"

using namespace willow;
using namespace willow::util::literals;
using willow::util::Watts;
using willow::util::Seconds;

int main() {
  core::ServerConfig server;
  server.thermal.c1 = 0.08;
  server.thermal.c2 = 0.05;
  server.thermal.ambient = 25_degC;
  server.thermal.limit = 70_degC;
  server.thermal.nameplate = 450_W;
  server.power_model = power::ServerPowerModel::paper_simulation();

  core::Cluster cluster(0.7);
  const auto root = cluster.add_root("datacenter");
  std::vector<hier::NodeId> servers;
  std::vector<hier::NodeId> racks;
  for (int r = 0; r < 3; ++r) {
    const auto rack = cluster.add_group(root, "rack" + std::to_string(r));
    racks.push_back(rack);
    for (int s = 0; s < 3; ++s) {
      servers.push_back(
          cluster.add_server(rack, "s" + std::to_string(r * 3 + s), server));
    }
  }

  // Offered load: ~55% of the ~18 W sustainable dynamic envelope each.
  util::Rng rng(7);
  workload::AppIdAllocator ids;
  workload::MixConfig mix;
  mix.unit_power = 1_W;
  mix.target_mean_per_server = Watts{10.0};
  for (auto s : servers) {
    for (auto& app : workload::build_mix(mix, ids, rng)) {
      cluster.place(std::move(app), s);
    }
  }

  core::ControllerConfig config;
  config.margin = 1.5_W;
  config.migration_cost = 0.5_W;
  config.utilization_reference =
      core::UtilizationReference::kThermalSustainable;
  core::Controller controller(cluster, config);

  workload::PoissonDemand demand(1_W);
  const Watts supply{28.125 * 9.0};  // full sustainable envelope

  util::Table table({"tick", "rack0_temp", "rack0_apps", "rack0_budget_W",
                     "migrations_away", "max_temp"});
  table.set_precision(1);
  std::uint64_t away = 0;
  for (int t = 0; t < 80; ++t) {
    if (t == 20) {
      std::cout << ">>> t=20: rack0 cooling fails, ambient 25 -> 45 degC\n";
      for (int s = 0; s < 3; ++s) {
        cluster.set_ambient(servers[s], 45_degC);
      }
    }
    cluster.refresh_demands(demand, 7, t, 1.0, nullptr);
    controller.tick(supply);
    cluster.step_thermal(1_s);

    for (const auto& rec : controller.migrations_this_tick()) {
      for (int s = 0; s < 3; ++s) {
        if (rec.from == servers[s]) ++away;
      }
    }
    if (t % 5 == 0) {
      double rack0_temp = 0.0, rack0_budget = 0.0, max_temp = 0.0;
      std::size_t rack0_apps = 0;
      for (int s = 0; s < 9; ++s) {
        const double temp =
            cluster.server(servers[s]).thermal().temperature().value();
        max_temp = std::max(max_temp, temp);
        if (s < 3) {
          rack0_temp += temp / 3.0;
          rack0_apps += cluster.server(servers[s]).apps().size();
          rack0_budget += cluster.tree().node(servers[s]).budget().value();
        }
      }
      table.row()
          .add(t)
          .add(rack0_temp)
          .add(static_cast<long long>(rack0_apps))
          .add(rack0_budget)
          .add(static_cast<long long>(away))
          .add(max_temp);
    }
  }
  table.print(std::cout);

  std::cout << "\nNo thermal limit was violated; " << away
            << " application migrations drained the hot rack.\n";
  return 0;
}
