// Perf baseline for the incremental control plane: fleet size x churn rate,
// full recompute vs change-driven walks.
//
// For every configuration the simulation runs twice — once with
// incremental_control off (the controller re-walks the whole PMU tree each
// tick) and once on (dirty-set aggregation, memoized budget division, the
// consolidation root failure cache and capacity index).  The two runs must produce identical results (asserted via
// a determinism checksum); only the controller's wall time may differ.  The
// timed quantity is the `sim.phase.controller.measured` timer, which counts
// Controller::tick() wall time on post-warmup ticks only, so the low-churn
// configurations measure the settled steady state where the incremental walk
// skips nearly everything.
//
// Writes the sweep to BENCH_controller_scaling.json (or argv[1]); the
// `speedup_vs_serial` field of an incremental point is its controller-tick
// speedup against the full-recompute run of the same configuration (1.0 on
// the full rows).  scripts/perf_smoke.sh gates on the 10k-server low-churn
// speedup staying above 1.
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.h"

namespace willow::bench {
namespace {

struct Fleet {
  std::string name;
  sim::DatacenterLayout layout;
  /// Low-churn warmup override.  The steady-state showcase needs the thermal
  /// plant settled (~650 ticks at the paper's cooling rate); at 100k servers
  /// that warmup alone would cost the full-recompute run tens of minutes, so
  /// the largest fleet measures the late transient instead — demand-side
  /// skipping is already in effect there, thermal limits still roll.
  long low_churn_warmup = 720;
};

struct Churn {
  std::string name;
  double probability;
  double demand_quantum_w;  ///< 0 = deterministic constant demand
  long warmup;              ///< low churn needs the thermal plant to settle
  long measure;
};

sim::SimConfig sweep_config(const Fleet& fleet, const Churn& churn,
                            bool incremental) {
  auto cfg = paper_sim_config(0.5, /*seed=*/4242);
  cfg.datacenter.layout = fleet.layout;
  cfg.warmup_ticks = churn.warmup;
  cfg.measure_ticks = churn.measure;
  cfg.churn_probability = churn.probability;
  cfg.demand_quantum = util::Watts{churn.demand_quantum_w};
  cfg.incremental_control = incremental;
  cfg.threads = 0;  // sim phases on all cores; the controller phase is serial
  return cfg;
}

struct Measured {
  double controller_seconds = 0.0;  ///< post-warmup Controller::tick() total
  std::uint64_t controller_ticks = 0;
  double checksum = 0.0;
};

Measured run_once(const Fleet& fleet, const Churn& churn, bool incremental) {
  sim::Simulation simulation(sweep_config(fleet, churn, incremental));
  const auto result = simulation.run();
  Measured m;
  for (const auto& t : result.metrics.timers) {
    if (t.name == "sim.phase.controller.measured") {
      m.controller_seconds = t.total_seconds;
      m.controller_ticks = t.count;
    }
  }
  m.checksum = result.total_power.stats().sum() + result.max_temperature_c +
               static_cast<double>(result.churn_departures) +
               static_cast<double>(result.controller_stats.total_migrations());
  return m;
}

int run(int argc, char** argv) {
  std::vector<Fleet> fleets{
      {"servers_1k", {5, 10, 20}},
      {"servers_10k", {10, 25, 40}},
      {"servers_100k", {20, 50, 100}, /*low_churn_warmup=*/160},
  };
  // Low churn holds demand bitwise-constant (quantum 0), so once the thermal
  // plant reaches its bitwise fixed point (~650 ticks at the paper's cooling
  // rate) the steady-state tick does no re-aggregation at all — the warmup
  // must cover that settling horizon or the "steady state" still re-rolls
  // thermal limits every tick.  Medium/high keep Poisson demand plus
  // workload churn, where the dirty set stays large — those guard the
  // regression bound rather than showcase skipping.
  std::vector<Churn> churns{
      {"low", 0.0, 0.0, 720, 60},
      {"medium", 0.02, 1.0, 40, 60},
      {"high", 0.2, 1.0, 40, 60},
  };
  const bool quick = argc > 2 && std::string(argv[2]) == "--quick";
  if (quick) fleets.pop_back();  // skip the 100k sweep in smoke runs

  std::vector<PerfPoint> points;
  util::Table table({"fleet", "churn", "mode", "ctl_ms_per_tick", "speedup"});
  table.set_precision(4);
  bool deterministic = true;
  double speedup_10k_low = 0.0;
  double worst_high_churn = std::numeric_limits<double>::infinity();
  for (const auto& fleet : fleets) {
    for (const auto& churn : churns) {
      Churn regime = churn;
      if (regime.name == "low") regime.warmup = fleet.low_churn_warmup;
      const Measured full = run_once(fleet, regime, /*incremental=*/false);
      const Measured inc = run_once(fleet, regime, /*incremental=*/true);
      if (full.checksum != inc.checksum) {
        std::cerr << "ERROR: " << fleet.name << "/" << churn.name
                  << ": incremental run diverged from full recompute\n";
        deterministic = false;
      }
      const double speedup = inc.controller_seconds > 0.0
                                 ? full.controller_seconds /
                                       inc.controller_seconds
                                 : 1.0;
      if (fleet.name == "servers_10k" && churn.name == "low") {
        speedup_10k_low = speedup;
      }
      if (churn.name == "high") {
        worst_high_churn = std::min(worst_high_churn, speedup);
      }
      for (const bool is_inc : {false, true}) {
        const Measured& m = is_inc ? inc : full;
        PerfPoint p;
        p.scenario = fleet.name + "/" + churn.name + "/" +
                     (is_inc ? "incremental" : "full");
        p.servers = fleet.layout.total_servers();
        p.threads = 0;
        p.ticks = static_cast<long>(m.controller_ticks);
        p.wall_seconds = m.controller_seconds;
        p.ticks_per_second =
            m.controller_seconds > 0.0
                ? static_cast<double>(m.controller_ticks) /
                      m.controller_seconds
                : 0.0;
        p.speedup_vs_serial = is_inc ? speedup : 1.0;
        points.push_back(p);
        table.row()
            .add(fleet.name)
            .add(churn.name)
            .add(is_inc ? "incremental" : "full")
            .add(m.controller_ticks > 0
                     ? 1e3 * m.controller_seconds /
                           static_cast<double>(m.controller_ticks)
                     : 0.0)
            .add(p.speedup_vs_serial);
      }
    }
  }

  std::cout << "== controller scaling (post-warmup controller wall time) ==\n";
  table.print(std::cout);
  if (!deterministic) return 1;
  std::cout << "(results identical between full and incremental modes)\n";
  std::cout << "steady-state speedup at 10k servers, low churn: "
            << speedup_10k_low << "x\n";
  std::cout << "worst high-churn speedup: " << worst_high_churn << "x\n";

  const std::string path = argc > 1 ? argv[1] : "BENCH_controller_scaling.json";
  if (!write_perf_json(path, "controller_scaling", points)) {
    std::cerr << "failed to write " << path << '\n';
    return 1;
  }
  std::cout << "(json written to " << path << ")\n";
  return 0;
}

}  // namespace
}  // namespace willow::bench

int main(int argc, char** argv) { return willow::bench::run(argc, argv); }
