// Performance — the per-tick hot paths: thermal stepping, EWMA updates,
// fabric accounting, budget allocation, and the root-escalation FFDLR pack.
// These run once per server (or per node) per demand period; their costs
// bound how short ΔD can be for a given fleet size.
#include <benchmark/benchmark.h>

#include "binpack/pack.h"
#include "core/allocation.h"
#include "core/controller.h"
#include "net/fabric.h"
#include "thermal/thermal_model.h"
#include "util/ewma.h"
#include "util/rng.h"

namespace {

using namespace willow;
using namespace willow::util::literals;

void BM_ThermalStep(benchmark::State& state) {
  thermal::ThermalParams p;
  p.c1 = 0.08;
  p.c2 = 0.05;
  thermal::ThermalModel model(p);
  double power = 100.0;
  for (auto _ : state) {
    model.step(util::Watts{power}, 1_s);
    power = power > 400.0 ? 50.0 : power + 1.0;
    benchmark::DoNotOptimize(model.temperature());
  }
}

void BM_PowerLimit(benchmark::State& state) {
  thermal::ThermalParams p;
  p.c1 = 0.08;
  p.c2 = 0.05;
  thermal::ThermalModel model(p, 55_degC);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.power_limit(1_s));
  }
}

void BM_EwmaUpdate(benchmark::State& state) {
  util::Ewma<double> filter(0.7);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.update(x));
    x += 1.0;
  }
}

void BM_Allocation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<util::Watts> demands, caps;
  for (std::size_t i = 0; i < n; ++i) {
    demands.emplace_back(rng.uniform(5.0, 50.0));
    caps.emplace_back(rng.uniform(20.0, 80.0));
  }
  for (auto _ : state) {
    auto r = core::allocate_proportional(util::Watts{20.0 * n}, demands, caps);
    benchmark::DoNotOptimize(r.unallocated);
  }
  state.SetComplexityN(state.range(0));
}

// The shape of demand adaptation's root escalation: a handful of leftover
// items offered to every server of a 10k fleet, most with little room left.
void BM_FfdlrPack(benchmark::State& state) {
  const auto n_items = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<binpack::Item> items;
  for (std::size_t i = 0; i < n_items; ++i) {
    items.push_back({i, rng.uniform(20.0, 110.0), 0});
  }
  std::vector<binpack::Bin> bins;
  for (std::uint64_t b = 0; b < 10000; ++b) {
    bins.push_back({b, rng.uniform(0.5, 120.0), 0});
  }
  for (auto _ : state) {
    auto r = binpack::pack(items, bins, binpack::Algorithm::kFfdlr);
    benchmark::DoNotOptimize(r.placed_size);
  }
}

void BM_FabricMigration(benchmark::State& state) {
  hier::Tree tree(0.7);
  const auto root = tree.add_root("dc");
  std::vector<hier::NodeId> servers;
  for (int z = 0; z < 4; ++z) {
    const auto zone = tree.add_child(root, "z");
    for (int r = 0; r < 4; ++r) {
      const auto rack = tree.add_child(zone, "r");
      for (int s = 0; s < 4; ++s) servers.push_back(tree.add_child(rack, "s"));
    }
  }
  net::Fabric fabric(tree, net::FabricConfig{});
  util::Rng rng(5);
  fabric.begin_period();
  for (auto _ : state) {
    const auto a = servers[rng.index(servers.size())];
    const auto b = servers[rng.index(servers.size())];
    benchmark::DoNotOptimize(fabric.add_migration(a, b, 1.0));
  }
}

/// The whole control loop, full recompute vs change-driven, quiescent vs
/// churning fleet.  Args: {servers, incremental, churn}.  Without churn the
/// demand estimates reach their bitwise fixed point during setup, so the
/// incremental walk measures its steady-state floor (flat leaf scans only);
/// with churn ~1% of servers change demand before every tick and the dirty
/// subtrees re-aggregate.
void BM_ControllerTick(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  const bool churn = state.range(2) != 0;

  core::ServerConfig sc;
  sc.thermal.c1 = 0.08;
  sc.thermal.c2 = 0.05;
  sc.thermal.ambient = 25_degC;
  sc.thermal.limit = 70_degC;
  sc.thermal.nameplate = 450_W;
  sc.power_model = power::ServerPowerModel(10_W, 450_W);

  core::Cluster cluster(0.7);
  const auto root = cluster.add_root("dc");
  std::vector<hier::NodeId> leaves;
  workload::AppIdAllocator ids;
  util::Rng rng(17);
  hier::NodeId rack = hier::kNoNode;
  for (std::size_t s = 0; s < servers; ++s) {
    if (s % 20 == 0) rack = cluster.add_group(root, "rack");
    const auto leaf = cluster.add_server(rack, "s", sc);
    leaves.push_back(leaf);
    cluster.place(workload::Application(ids.next(), 0,
                                        util::Watts{rng.uniform(20.0, 60.0)},
                                        512_MB),
                  leaf);
  }

  core::ControllerConfig cfg;
  cfg.incremental = incremental;
  core::Controller ctl(cluster, cfg);
  const util::Watts supply{static_cast<double>(servers) * 80.0};
  for (int t = 0; t < 100; ++t) ctl.tick(supply);  // settle the estimators

  const std::size_t churned = std::max<std::size_t>(1, servers / 100);
  for (auto _ : state) {
    if (churn) {
      for (std::size_t i = 0; i < churned; ++i) {
        const auto leaf = leaves[rng.index(leaves.size())];
        auto& apps = cluster.server(leaf).apps();
        if (!apps.empty()) {
          apps.front().set_demand(util::Watts{rng.uniform(20.0, 60.0)});
          ctl.note_external_change(leaf);
        }
      }
    }
    ctl.tick(supply);
    benchmark::DoNotOptimize(ctl.stats().total_migrations());
  }
}

}  // namespace

BENCHMARK(BM_ThermalStep);
BENCHMARK(BM_PowerLimit);
BENCHMARK(BM_EwmaUpdate);
BENCHMARK(BM_Allocation)->RangeMultiplier(4)->Range(4, 256)->Complexity();
BENCHMARK(BM_FfdlrPack)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FabricMigration);
BENCHMARK(BM_ControllerTick)
    ->ArgsProduct({{1000, 10000}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
