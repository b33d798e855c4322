// The traced tick driver: builds the plant sim::Simulation builds and drives
// it through the same public calls Simulation::run makes, in the same order,
// with a span around each call into a layer.  The simulator is
// deterministic, so a faithful driver reproduces the untraced run's
// simulated statistics bit for bit; main.cc checks that on every traced run.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tickbench.h"

namespace willow::tickbench {

enum Layer : int {
  kSample,       ///< churn draws
  kChurnApply,   ///< Cluster::remove_app/place + note_external_change
  kFaultApply,   ///< FaultPlane begin_tick/sample_range/apply
  kDemand,       ///< Cluster::refresh_demands[_deterministic]
  kUps,          ///< SupplyProfile::at + Ups::set_failed/step
  kFabric,       ///< Fabric::begin_period/add_server_traffic
  kController,   ///< Controller::tick
  kThermal,      ///< Cluster::step_thermal (+ per-server recording)
  kRecord,       ///< re-migration bookkeeping, level_balance, totals
  kLayerCount,
};

/// Metric-name stems, index-aligned with Layer.
inline constexpr std::array<const char*, kLayerCount> kLayerNames{
    "sim.sample",      "core.churn_apply", "fault.apply",
    "workload.demand", "power.ups",        "net.fabric",
    "core.controller", "thermal.step",     "sim.record",
};

/// Layer value of a whole-tick span; layer spans are its children.
inline constexpr int kTickSpan = -1;

/// One span.  All spans of one tick share the tick index as their id.
struct Span {
  long tick = 0;
  int layer = kTickSpan;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct TracedRun {
  sim::SimResult result;
  AppCensus initial;
  AppCensus final_census;
  /// Spans of the recorded ticks, in the order they closed.
  std::vector<Span> spans;
  /// Counter movement over the recorded ticks.
  Counters window;
};

/// Builds and runs `cfg`.  Throws std::invalid_argument for a scenario that
/// uses a feature this driver does not mirror.
[[nodiscard]] TracedRun run_traced(sim::SimConfig cfg);

}  // namespace willow::tickbench
