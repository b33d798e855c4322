// Shadow-diff gate for the incremental control plane: every scenario runs
// once with the full per-tick recompute and once change-driven, and the two
// JSONL traces must be byte-identical.  The incremental runs also enable
// shadow mode, where the controller re-derives every value it skipped and
// throws on the first divergence — so a clean exit *is* the equivalence
// proof at every decision point, not just at the trace level.  Registered
// under the `shadow-diff` ctest label so the tsan gate can pick it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/sink.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig base_config(double utilization, unsigned long long seed) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = utilization;
  cfg.warmup_ticks = 10;
  cfg.measure_ticks = 40;
  cfg.seed = seed;
  return cfg;
}

struct TracedRun {
  std::string trace;
  SimResult result;
};

TracedRun traced_run(SimConfig cfg, bool incremental, std::size_t threads) {
  std::ostringstream os;
  cfg.incremental_control = incremental;
  cfg.shadow_diff = incremental;  // audit every skip the walk takes
  cfg.threads = threads;
  cfg.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
  auto result = run_simulation(std::move(cfg));
  return {os.str(), std::move(result)};
}

void expect_modes_equivalent(const SimConfig& cfg) {
  const TracedRun full = traced_run(cfg, /*incremental=*/false, 1);
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  const TracedRun inc_mt = traced_run(cfg, /*incremental=*/true, 4);
  ASSERT_FALSE(full.trace.empty());
  EXPECT_EQ(full.trace, inc.trace)
      << "incremental trace diverges from full recompute; first divergence "
         "at byte "
      << std::mismatch(full.trace.begin(), full.trace.end(),
                       inc.trace.begin(), inc.trace.end())
                 .first -
             full.trace.begin();
  EXPECT_EQ(inc.trace, inc_mt.trace)
      << "incremental trace depends on the thread count";

  // Shadow mode actually audited skips (the incremental walk did skip work),
  // and none of the re-derivations disagreed.  Aggregation-sweep skips
  // specifically need a settled subtree, which Poisson demand rarely allows;
  // the churn test asserts those separately.
  const auto& m = inc.result.metrics;
  EXPECT_GT(m.counter_or_zero("control.shadow_checks"), 0u);
  EXPECT_EQ(m.counter_or_zero("control.shadow_mismatches"), 0u);
}

TEST(ShadowDiff, ChurnScenario) {
  auto cfg = base_config(0.6, 7);
  cfg.churn_probability = 0.1;
  cfg.report_loss_probability = 0.05;
  expect_modes_equivalent(cfg);
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  EXPECT_GT(inc.result.metrics.counter_or_zero("control.nodes_skipped"), 0u);
}

TEST(ShadowDiff, AmbientEventScenario) {
  auto cfg = base_config(0.5, 99);
  cfg.ambient_events.push_back({12, 0, 8, 45_degC});
  cfg.ambient_events.push_back({30, 0, 8, 25_degC});
  expect_modes_equivalent(cfg);
}

TEST(ShadowDiff, UpsSupplyScenario) {
  auto cfg = base_config(0.5, 5);
  std::vector<util::Watts> levels(50, 480_W);
  levels[25] = 150_W;
  cfg.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg.ups = power::Ups(util::Joules{600.0}, 300_W, 100_W, 1.0);
  expect_modes_equivalent(cfg);
}

TEST(ShadowDiff, FaultScheduleScenario) {
  // The fault plane must not break incremental==full: lost/duplicated
  // messages, sensor episodes, crashes and degraded-mode clamps all re-dirty
  // the incremental walk, and shadow mode audits every skip it still takes.
  auto cfg = base_config(0.6, 13);
  cfg.churn_probability = 0.05;
  cfg.report_loss_probability = 0.05;
  cfg.faults.link.up_loss = 0.05;
  cfg.faults.link.up_delay = 0.05;
  cfg.faults.link.up_duplicate = 0.02;
  cfg.faults.link.down_loss = 0.05;
  cfg.faults.link.down_duplicate = 0.02;
  cfg.faults.power_sensor.dropout_probability = 0.01;
  cfg.faults.power_sensor.bias_probability = 0.01;
  cfg.faults.power_sensor.bias = 4.0;
  cfg.faults.temp_sensor.stuck_probability = 0.01;
  cfg.faults.crash_probability = 0.005;
  cfg.faults.crash_down_ticks = 5;
  cfg.faults.crash_events.push_back({15, 0, 2, 5});
  cfg.controller.stale_timeout_ticks = 3;
  expect_modes_equivalent(cfg);
}

TEST(ShadowDiff, MigrationsPermanentlyInFlightScenario) {
  // The transient-aware consolidation path must hold the equivalence claim
  // *while migrations are mid-flight*, not just on a quiesced fleet: slow
  // multi-tick transfers plus churn keep in-flight/absorbed watts booked on
  // sources and targets at every consolidation pass, so the epoch-stamped
  // verdict caches and the point-updated capacity index are audited against
  // live transients on every tick.
  auto cfg = base_config(0.6, 21);
  cfg.churn_probability = 0.1;
  cfg.controller.migration_periods_per_gib = 6.0;  // transfers span ticks
  expect_modes_equivalent(cfg);
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  EXPECT_GT(inc.result.controller_stats.total_migrations(), 0u)
      << "scenario never started a migration; nothing was in flight";
  // Consolidation verdicts were actually served during the transients.
  const auto& m = inc.result.metrics;
  EXPECT_GT(m.counter_or_zero("control.consol_candidates"), 0u);
  EXPECT_GT(m.counter_or_zero("control.index_point_updates"), 0u);
}

TEST(ShadowDiff, NonFfdlrPackerScenario) {
  // The fleet-scope capacity index replays FFDLR only; under any other
  // packer a fleet-scope consolidation dry run must take the full pack.
  auto cfg = base_config(0.4, 8);
  cfg.churn_probability = 0.1;
  cfg.controller.packing = binpack::Algorithm::kFirstFitDecreasing;
  cfg.controller.prefer_local = false;  // every dry run is fleet-scope
  expect_modes_equivalent(cfg);
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  EXPECT_GT(inc.result.controller_stats.consolidation_migrations, 0u);
}

/// Largest number of wake events the trace carries for a single tick.
std::size_t max_wakes_in_one_tick(const std::string& trace) {
  std::map<long long, std::size_t> per_tick;
  std::istringstream is(trace);
  for (std::string line; std::getline(is, line);) {
    if (line.find("\"type\":\"wake\"") == std::string::npos) continue;
    const auto t = line.find("\"t\":");
    if (t == std::string::npos) continue;
    ++per_tick[std::stoll(line.substr(t + 4))];
  }
  std::size_t most = 0;
  for (const auto& [tick, n] : per_tick) most = std::max(most, n);
  return most;
}

TEST(ShadowDiff, MultiBatchWakeScenario) {
  // Wake batches double (1, 2, 4, ...), each followed by a supply pass, so a
  // tick with two or more wakes ran at least two passes: the later ones skip
  // the leaf-limit sweep, and shadow mode re-derives every leaf limit there.
  // Light load lets consolidation fill the sleep pool; then demand steps up
  // and churn keeps landing work the awake servers cannot hold.
  auto cfg = base_config(0.3, 11);
  cfg.churn_probability = 0.1;
  cfg.measure_ticks = 60;
  std::vector<double> steps(35, 1.0);
  steps.push_back(2.5);
  cfg.intensity = std::make_shared<workload::TraceIntensity>(steps, 1_s);
  expect_modes_equivalent(cfg);
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  EXPECT_GE(max_wakes_in_one_tick(inc.trace), 2u)
      << "no tick ran a second wake batch";
}

TEST(ShadowDiff, SettledFleetServesConsolidationFromRootCache) {
  // The root failure cache is the one consolidation cache that pays: on a
  // settled fleet (constant demand, no churn, thermal plant at its fixed
  // point) every candidate already failed to drain fleet-wide and nothing
  // has moved since, so each one is served from the cache without packing.
  // Counters are cumulative, so the measured window is the difference
  // between a run and the same run extended by kWindow ticks.
  auto cfg = base_config(0.5, 31);
  cfg.datacenter.layout = {4, 5, 20};
  cfg.demand_quantum = 0_W;
  cfg.warmup_ticks = 720;  // the thermal plant's bitwise fixed point
  cfg.measure_ticks = 1;
  constexpr long kWindow = 70;  // ten consolidation passes (eta2 = 7)
  auto run = [](SimConfig c, long extra, bool shadow, std::size_t threads) {
    c.measure_ticks += extra;
    c.shadow_diff = shadow;
    c.threads = threads;
    std::ostringstream os;
    c.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
    auto result = run_simulation(std::move(c));
    return TracedRun{os.str(), std::move(result)};
  };
  const TracedRun before = run(cfg, 0, false, 1);
  const TracedRun after = run(cfg, kWindow, false, 1);
  ASSERT_EQ(after.trace.compare(0, before.trace.size(), before.trace), 0)
      << "the extended run does not replay the shorter one";
  auto window = [&](const char* name) {
    return after.result.metrics.counter_or_zero(name) -
           before.result.metrics.counter_or_zero(name);
  };
  const auto candidates = window("control.consol_candidates");
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(window("control.consol_cache_served"), candidates);
  EXPECT_EQ(window("control.packings_reused"), candidates);
  EXPECT_EQ(window("controller.pack_calls"), 0u);

  // Same scenario, every cache hit re-derived under shadow mode.
  const TracedRun shadow = run(cfg, kWindow, true, 1);
  EXPECT_EQ(shadow.trace, after.trace);
  EXPECT_GT(shadow.result.metrics.counter_or_zero("control.shadow_checks"),
            0u);
  EXPECT_EQ(
      shadow.result.metrics.counter_or_zero("control.shadow_mismatches"), 0u);

  // The data plane runs sharded at threads > 1; the trace must not depend
  // on it.
  const TracedRun threaded = run(cfg, kWindow, false, 4);
  EXPECT_EQ(threaded.trace, after.trace)
      << "settled-fleet trace depends on the thread count";
}

TEST(ShadowDiff, SkipCountersReconcileWithTrace) {
  // The metrics the perf gate keys on must agree with the trace: every
  // upward link message in the JSONL is one demand report, and reaggregated
  // plus skipped nodes account for every report_demands visit.
  auto cfg = base_config(0.6, 7);
  cfg.churn_probability = 0.1;
  const TracedRun inc = traced_run(cfg, /*incremental=*/true, 1);
  std::size_t up_lines = 0;
  std::istringstream is(inc.trace);
  for (std::string line; std::getline(is, line);) {
    if (line.find("\"type\":\"link_message\"") != std::string::npos &&
        line.find("\"dir\":\"up\"") != std::string::npos) {
      ++up_lines;
    }
  }
  const auto& m = inc.result.metrics;
  EXPECT_GT(up_lines, 0u);
  EXPECT_EQ(m.counter_or_zero("control.demand_reports"), up_lines);
}

}  // namespace
}  // namespace willow::sim
