// Large-fleet determinism smoke test (ctest label: scale): a 10,000-server
// datacenter under churn must produce byte-identical event traces for 1 and
// 8 tick-engine threads.  The trace covers every control decision (budgets,
// reports, migrations, sleeps), so hash equality here is the scaled-up
// version of the shadow-diff gate's equivalence claim — exercised on fleets
// big enough that the subtree server lists and the consolidation fast path
// actually carry the load.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "obs/sink.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

constexpr std::size_t kServers = 10'000;

SimConfig large_fleet_config() {
  SimConfig cfg;
  cfg.datacenter.layout.zones = 10;
  cfg.datacenter.layout.racks_per_zone = 25;
  cfg.datacenter.layout.servers_per_rack = 40;  // 10,000 servers
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.5;
  // Churn plus Poisson variance keeps subtrees dirty, so the run exercises
  // the incremental machinery (dirty-set aggregation, consolidation fast
  // path) rather than the settled all-cached regime.
  cfg.churn_probability = 0.02;
  cfg.demand_quantum = 1_W;
  cfg.warmup_ticks = 5;
  cfg.measure_ticks = 25;
  cfg.seed = 4242;
  return cfg;
}

/// FNV-1a over the full trace text: the "golden hash" both runs must share.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct TracedRun {
  std::string trace;
  SimResult result;
};

TracedRun traced_run(std::size_t threads) {
  auto cfg = large_fleet_config();
  cfg.threads = threads;
  std::ostringstream os;
  cfg.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
  auto result = run_simulation(std::move(cfg));
  return {os.str(), std::move(result)};
}

TEST(ScaleDeterminism, TenThousandServersTraceIdenticalAcrossThreads) {
  const TracedRun serial = traced_run(1);
  const TracedRun threaded = traced_run(8);

  ASSERT_FALSE(serial.trace.empty());
  ASSERT_EQ(serial.result.servers.size(), kServers);
  EXPECT_GT(serial.result.controller_stats.total_migrations(), 0u)
      << "scenario too quiet to be a determinism test";

  const std::uint64_t golden = fnv1a(serial.trace);
  const std::uint64_t other = fnv1a(threaded.trace);
  RecordProperty("trace_hash", std::to_string(golden));
  EXPECT_EQ(golden, other) << "trace hash depends on the thread count";
  // Hash equality is the headline; byte comparison localizes a failure.
  ASSERT_EQ(serial.trace.size(), threaded.trace.size());
  if (serial.trace != threaded.trace) {
    const auto mis = std::mismatch(serial.trace.begin(), serial.trace.end(),
                                   threaded.trace.begin());
    FAIL() << "traces diverge at byte " << (mis.first - serial.trace.begin());
  }

  // The keyed result surface agrees between runs too (spot check: the keyed
  // accessor resolves every node and the aggregates match bitwise).
  ASSERT_EQ(serial.result.server_nodes.size(), kServers);
  double a = 0.0;
  double b = 0.0;
  for (const auto node : serial.result.server_nodes) {
    a += serial.result.server_metrics(node).consumed_power.mean();
    b += threaded.result.server_metrics(node).consumed_power.mean();
  }
  EXPECT_EQ(a, b);
}

TEST(ScaleDeterminism, SustainedChurnConsolidationIdenticalAcrossThreads) {
  // Consolidation under sustained churn with migrations held in flight:
  // low utilization keeps the fleet deep in consolidation territory (sleep
  // candidates every pass), churn re-dirties subtrees every tick, and slow
  // multi-tick transfers mean every consolidation pass runs against live
  // transients.  This is the regime the batched packing pass, the
  // point-updated capacity index and the parallel subtree dry runs carry —
  // the parallel phase must leave no fingerprint in the trace.
  auto churn_cfg = [](std::size_t threads) {
    auto cfg = large_fleet_config();
    cfg.target_utilization = 0.4;
    cfg.churn_probability = 0.03;
    cfg.controller.migration_periods_per_gib = 4.0;
    cfg.warmup_ticks = 5;
    cfg.measure_ticks = 30;
    cfg.threads = threads;
    return cfg;
  };
  auto run_traced = [&](std::size_t threads) {
    auto cfg = churn_cfg(threads);
    std::ostringstream os;
    cfg.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
    auto result = run_simulation(std::move(cfg));
    return TracedRun{os.str(), std::move(result)};
  };
  const TracedRun serial = run_traced(1);
  const TracedRun threaded = run_traced(8);

  ASSERT_FALSE(serial.trace.empty());
  const auto& stats = serial.result.controller_stats;
  EXPECT_GT(stats.consolidation_migrations, 0u)
      << "scenario never consolidated; it does not cover the batched pass";
  EXPECT_GT(stats.sleeps, 0u);
  const auto& m = serial.result.metrics;
  EXPECT_GT(m.counter_or_zero("control.consol_candidates"), 0u);
  EXPECT_GT(m.counter_or_zero("control.consol_drained"), 0u);
  EXPECT_GT(m.counter_or_zero("control.index_point_updates"), 0u);

  const std::uint64_t golden = fnv1a(serial.trace);
  const std::uint64_t other = fnv1a(threaded.trace);
  RecordProperty("churn_trace_hash", std::to_string(golden));
  EXPECT_EQ(golden, other) << "churn trace hash depends on the thread count";
  ASSERT_EQ(serial.trace.size(), threaded.trace.size());
  if (serial.trace != threaded.trace) {
    const auto mis = std::mismatch(serial.trace.begin(), serial.trace.end(),
                                   threaded.trace.begin());
    FAIL() << "traces diverge at byte " << (mis.first - serial.trace.begin());
  }
  // The effectiveness counters are part of the deterministic surface too:
  // a parallel run must examine and drain exactly the same candidates.
  const auto& mt = threaded.result.metrics;
  for (const char* name :
       {"control.consol_candidates", "control.consol_drained",
        "control.consol_cache_served", "control.consol_batched",
        "control.index_point_updates"}) {
    EXPECT_EQ(m.counter_or_zero(name), mt.counter_or_zero(name)) << name;
  }
}

}  // namespace
}  // namespace willow::sim
