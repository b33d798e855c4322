// Shared pieces of the tick benchmark: the workloads, the wall clock, and the
// two exact fingerprints (simulated statistics, window counters) that every
// measured run is checked against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace willow::tickbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  std::string name;
  /// Ticks run before the measured window; their cost is part of set-up.
  long warmup_ticks = 0;
  /// Tick intervals measured per repetition.  The scenario records one tick
  /// more, whose boundary closes the last measured interval.
  long measured_ticks = 0;
  /// The scenario is sized to stay inside the thermal envelope.
  bool thermally_safe = true;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The scenario of `w`, with every input derived from `seed`.  Serial
/// (threads = 1), no intensity profile, no sinks.
[[nodiscard]] sim::SimConfig make_config(const Workload& w,
                                         std::uint64_t seed);

/// Hosted (live) and dropped applications across the fleet.
struct AppCensus {
  std::uint64_t hosted = 0;
  std::uint64_t dropped = 0;
  [[nodiscard]] std::uint64_t total() const { return hosted + dropped; }
};
[[nodiscard]] AppCensus count_apps(const sim::Datacenter& dc);

/// Every simulated statistic of a run, rendered exactly (doubles as hex
/// floats), in a fixed order.  Wall-clock timers are left out.
using Signature = std::vector<std::pair<std::string, std::string>>;
[[nodiscard]] Signature signature(const sim::SimResult& r, AppCensus initial,
                                  AppCensus final_census);
/// The first few differing entries, one per line; empty when equal.
[[nodiscard]] std::string diff(const Signature& want, const Signature& got);

/// Counters at one point of a run: every registry counter, each histogram's
/// count and sum, and the controller's tallies under the names
/// Simulation::run mirrors them to at the end ("controller.wakes", ...), so
/// the same key means the same thing at any point.
using Counters = std::map<std::string, double>;
[[nodiscard]] Counters counters(const obs::MetricsSnapshot& m,
                                const core::ControllerStats& s);
/// end - start, key by key (keys missing at the start count from 0).
[[nodiscard]] Counters delta(const Counters& end, const Counters& start);
/// Value of `key`, or 0 when absent.
[[nodiscard]] double get(const Counters& c, const std::string& key);

}  // namespace willow::tickbench
