// Performance — controller decision time vs datacenter size (Sec. V-A2).
//
// The paper argues the distributed decision process is O(log n) per level
// with constant per-level bin-packing cost; here we time a full centralized
// tick (which is Theta(n) in the plant size because it touches every server
// once) and the supply adaptation alone, across fleet sizes.  Near-linear
// whole-tick scaling confirms there is no super-linear term hiding in the
// matching.
#include <benchmark/benchmark.h>

#include "common.h"
#include "workload/demand.h"

namespace {

using namespace willow;

struct Plant {
  std::unique_ptr<sim::Datacenter> dc;
  std::unique_ptr<core::Controller> controller;
  workload::PoissonDemand demand{util::Watts{1.0}};
  double supply_w = 0.0;

  explicit Plant(std::size_t servers) {
    sim::DatacenterOptions options;
    options.layout.zones = 2;
    options.layout.racks_per_zone = std::max<std::size_t>(1, servers / 8);
    options.layout.servers_per_rack = 4;
    options.server.thermal.c1 = 0.08;
    options.server.thermal.c2 = 0.05;
    options.server.power_model = power::ServerPowerModel::paper_simulation();
    dc = sim::build_datacenter(options);
    util::Rng rng(99);
    workload::AppIdAllocator ids;
    workload::MixConfig mix;
    mix.unit_power = util::Watts{1.0};
    mix.target_mean_per_server = util::Watts{18.125 * 0.6};
    for (auto s : dc->servers) {
      for (auto& app : workload::build_mix(mix, ids, rng)) {
        dc->cluster.place(std::move(app), s);
      }
    }
    core::ControllerConfig cfg;
    cfg.margin = util::Watts{1.5};
    cfg.migration_cost = util::Watts{0.5};
    cfg.utilization_reference = core::UtilizationReference::kThermalSustainable;
    controller = std::make_unique<core::Controller>(dc->cluster, cfg);
    supply_w = 28.125 * static_cast<double>(dc->servers.size()) * 0.85;
  }

  void tick() {
    dc->cluster.refresh_demands(demand, 99, controller->tick_count(), 1.0,
                                 nullptr);
    controller->tick(util::Watts{supply_w});
    dc->cluster.step_thermal(util::Seconds{1.0});
  }
};

void BM_ControllerTick(benchmark::State& state) {
  Plant plant(static_cast<std::size_t>(state.range(0)));
  // Warm up so steady-state ticks are measured, not initial consolidation.
  for (int i = 0; i < 20; ++i) plant.tick();
  for (auto _ : state) {
    plant.tick();
  }
  state.SetComplexityN(state.range(0));
  state.counters["servers"] =
      static_cast<double>(plant.dc->servers.size());
  state.counters["migrations"] =
      static_cast<double>(plant.controller->stats().total_migrations());
}

void BM_SupplyAdaptation(benchmark::State& state) {
  Plant plant(static_cast<std::size_t>(state.range(0)));
  for (int i = 0; i < 5; ++i) plant.tick();
  double supply = plant.supply_w;
  for (auto _ : state) {
    supply = supply * 0.999;  // always a (tiny) tightening event
    plant.controller->force_supply_adaptation(util::Watts{supply});
  }
  state.SetComplexityN(state.range(0));
}

}  // namespace

BENCHMARK(BM_ControllerTick)->RangeMultiplier(4)->Range(16, 1024)->Complexity();
BENCHMARK(BM_SupplyAdaptation)->RangeMultiplier(4)->Range(16, 1024)->Complexity();
