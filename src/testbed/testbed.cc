#include "testbed/testbed.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace willow::testbed {

TestbedConfig::TestbedConfig() {
  controller.demand_period = Seconds{1.0};
  controller.eta1 = 4;
  controller.eta2 = 7;
  controller.margin = Watts{2.0};
  controller.migration_cost = Watts{1.0};
  // Paper: 20%.  The Table-II application quantization puts "20%-utilized"
  // server C at 15 W / 72.5 W = 20.7%, so the threshold sits just above.
  controller.consolidation_threshold = 0.21;
  controller.allocation = core::AllocationPolicy::kProportionalToCapacity;
}

thermal::ThermalParams testbed_thermal_params() {
  thermal::ThermalParams p;
  // Stable plant constants: steady-state at the 232 W full-load draw is
  // 25 + (0.08/0.45)*232 ~= 66 degC, and the steady holdable maximum is
  // (0.45/0.08)*45 ~= 253 W ~ the 250 W rating.
  p.c1 = 0.08;
  p.c2 = 0.45;
  p.ambient = Celsius{25.0};
  p.limit = Celsius{70.0};
  p.nameplate = Watts{250.0};
  return p;
}

thermal::ThermalParams paper_fitted_thermal_params() {
  thermal::ThermalParams p;
  p.c1 = 0.2;    // Sec. V-C2, Fig. 14
  p.c2 = 0.008;  // Sec. V-C2, Fig. 14
  p.ambient = Celsius{25.0};
  p.limit = Celsius{70.0};
  p.nameplate = Watts{250.0};
  return p;
}

power::ServerPowerModel testbed_power_model() {
  return power::ServerPowerModel::paper_testbed();
}

std::vector<std::pair<double, Watts>> table1_measurements(
    const std::vector<double>& utilizations, unsigned long long seed) {
  util::Rng rng(seed);
  const auto model = testbed_power_model();
  std::vector<std::pair<double, Watts>> rows;
  rows.reserve(utilizations.size());
  for (double u : utilizations) {
    // The Extech analyzer samples at ~2 Hz; average 20 noisy samples the way
    // the baseline experiment would over a 10 s hold.
    util::RunningStats samples;
    for (int i = 0; i < 20; ++i) {
      samples.add(model.power(u).value() + rng.gaussian(1.5));
    }
    rows.emplace_back(u, Watts{samples.mean()});
  }
  return rows;
}

std::vector<std::pair<std::string, Watts>> profile_applications(
    unsigned long long seed) {
  util::Rng rng(seed);
  const auto model = testbed_power_model();
  std::vector<std::pair<std::string, Watts>> rows;
  for (const auto& cls : workload::testbed_catalog()) {
    // Measure idle, then with the app running; report the increment.
    util::RunningStats idle, loaded;
    for (int i = 0; i < 20; ++i) {
      idle.add(model.static_power().value() + rng.gaussian(1.5));
      loaded.add(model.static_power().value() + cls.relative_power +
                 rng.gaussian(1.5));
    }
    rows.emplace_back(cls.name, Watts{loaded.mean() - idle.mean()});
  }
  return rows;
}

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  rng_ = std::make_unique<util::Rng>(config_.seed);
  cluster_ = std::make_unique<core::Cluster>(0.7);
  const NodeId root = cluster_->add_root("control-plane");
  // Fig. 13: two level-1 switches under one level-2 switch; servers A and B
  // share a switch, server C hangs off the other.
  const NodeId g1 =
      cluster_->add_group(root, "switch1", hier::NodeKind::kSwitch);
  const NodeId g2 =
      cluster_->add_group(root, "switch2", hier::NodeKind::kSwitch);
  core::ServerConfig cfg;
  cfg.thermal = testbed_thermal_params();
  cfg.power_model = testbed_power_model();
  servers_.push_back(cluster_->add_server(g1, "serverA", cfg));
  servers_.push_back(cluster_->add_server(g1, "serverB", cfg));
  servers_.push_back(cluster_->add_server(g2, "serverC", cfg));
  controller_ =
      std::make_unique<core::Controller>(*cluster_, config_.controller);
}

void Testbed::install(double utilization, NodeId server) {
  const auto model = testbed_power_model();
  const Watts target = model.dynamic_range() * utilization;
  const auto& catalog = workload::testbed_catalog();
  Watts placed{0.0};
  // Largest application class first, then smaller ones to close the gap —
  // mirrors how the experiments composed A1/A2/A3 VMs to hit a CPU level.
  std::vector<std::size_t> order(catalog.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return catalog[a].relative_power > catalog[b].relative_power;
  });
  for (std::size_t cls : order) {
    const Watts step{catalog[cls].relative_power};
    while (placed + step <= target + step * 0.5 && placed < target) {
      workload::Application app(ids_.next(), cls, step,
                                util::Megabytes{2048.0});
      cluster_->place(std::move(app), server);
      placed += step;
    }
  }
}

void Testbed::load_utilizations(double a, double b, double c) {
  install(a, servers_[0]);
  install(b, servers_[1]);
  install(c, servers_[2]);
}

RunResult Testbed::run(const power::SupplyProfile& supply, long ticks,
                       long delta_f) {
  RunResult result;
  auto& tree = cluster_->tree();
  const Seconds dt = config_.controller.demand_period;
  // The testbed apps are steady CPU loads; demand variation comes from small
  // measurement noise, not Poisson queries.
  std::uint64_t prev_migrations = 0;
  std::map<workload::AppId, long> last_move;

  for (long tick = 0; tick < ticks; ++tick) {
    const double t = static_cast<double>(tick);
    cluster_->refresh_demands_deterministic(1.0, nullptr);
    // Measurement noise on reported demand (the control plane reads scripts
    // polling ESX utilization counters).
    for (NodeId s : servers_) {
      auto& apps = cluster_->server(s).apps();
      for (auto& app : apps) {
        if (!app.dropped()) {
          const double noisy =
              app.mean_power().value() +
              rng_->gaussian(config_.power_noise_w * 0.2);
          app.set_demand(Watts{std::max(0.0, noisy)});
        }
      }
      // The demands changed behind the cache the refresh just deposited.
      cluster_->invalidate_app_demand(s);
    }

    const Watts available = supply.at(Seconds{t});
    controller_->tick(available);
    cluster_->step_thermal(dt);

    // Ping-pong detection (Property 4): an app moving again within delta_f.
    for (const auto& rec : controller_->migrations_this_tick()) {
      auto it = last_move.find(rec.app);
      if (it != last_move.end() && tick - it->second < delta_f) {
        result.ping_pong = true;
      }
      last_move[rec.app] = tick;
    }

    const auto& st = controller_->stats();
    result.supply.record(t, available.value());
    result.migrations.record(
        t, static_cast<double>(st.total_migrations() - prev_migrations));
    prev_migrations = st.total_migrations();

    double temp_sum = 0.0;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const auto& srv = cluster_->server(servers_[i]);
      const Watts budget = tree.node(servers_[i]).budget();
      const double temp = srv.thermal().temperature().value() +
                          rng_->gaussian(config_.sensor_noise_c);
      temp_sum += temp;
      if (i == 0) result.temperature_a.record(t, temp);
      result.utilization[i].record(t, srv.utilization(budget));
      result.consumed[i].record(t, srv.consumed_power(budget).value());
    }
    result.avg_temperature.record(
        t, temp_sum / static_cast<double>(servers_.size()));
  }

  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const auto& srv = cluster_->server(servers_[i]);
    result.asleep[i] = srv.asleep();
    // "Average utilization at the end of experiment": mean over the last
    // quarter of the run.
    const auto& u = result.utilization[i];
    const double t1 = static_cast<double>(ticks);
    result.final_utilization[i] = u.mean_between(t1 * 0.75, t1);
  }
  result.stats = controller_->stats();
  return result;
}

}  // namespace willow::testbed
