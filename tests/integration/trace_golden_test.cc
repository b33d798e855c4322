// Golden trace hashes: the JSONL trace `willow_cli --trace` writes for four
// reference scenarios, pinned as FNV-1a constants.  The thread-count tests
// only compare runs of the current code with each other; these constants
// compare it with every earlier version, so a change that moves any draw of
// the tick engine (demand, churn, link, sensor or crash variates) or any
// control decision fails here.  Each scenario runs at threads 1 and 4.
//
// The scenarios cover, between them: Poisson means below and above 12 (the
// two branches of the Poisson sampler), churn, QoS, IPC flows, degrade-mode
// shedding, migration latency, a sine supply through a UPS with a failure
// window, report loss, link/sensor/crash faults with stale timeouts,
// deterministic demand, the cooling plant, a hot zone, stepped supply and
// FFD packing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "obs/sink.h"
#include "sim/scenario_io.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// What willow_cli does with `--trace`: parse, add a JSONL sink, run.
std::string trace_of(const std::string& scenario, int threads) {
  std::istringstream in(scenario + "\nthreads = " + std::to_string(threads) +
                        "\n");
  auto cfg = parse_scenario(in);
  std::ostringstream os;
  cfg.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
  Simulation(std::move(cfg)).run();
  return os.str();
}

void expect_golden(const std::string& scenario, std::uint64_t golden) {
  for (const int threads : {1, 4}) {
    const std::string trace = trace_of(scenario, threads);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(fnv1a(trace), golden)
        << "threads = " << threads << ": trace hash 0x" << std::hex
        << fnv1a(trace);
  }
}

TEST(TraceGolden, Plain) {
  expect_golden(
      "utilization = 0.6\n"
      "seed = 9\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 40\n",
      0x83ebe7bdf1168af9ull);
}

// demand_quantum_w = 0.1 puts the class means 2, 5 and 9 W at Poisson means
// 20, 50 and 90 (halved under degrade, scaled by the diurnal intensity), so
// this scenario runs the rejection branch of the sampler.
TEST(TraceGolden, ChurnQosIpcDegradeLatency) {
  expect_golden(
      "utilization = 0.9\n"
      "seed = 21\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 40\n"
      "zones = 2\n"
      "racks_per_zone = 2\n"
      "servers_per_rack = 4\n"
      "demand_quantum_w = 0.1\n"
      "intensity = diurnal 1.0 0.3 24\n"
      "churn_probability = 0.05\n"
      "sla_inflation = 5\n"
      "ipc_chain_fraction = 0.3\n"
      "shedding = degrade\n"
      "priority_levels = 3\n"
      "migration_periods_per_gib = 0.5\n",
      0x44a4f81680ca3749ull);
}

TEST(TraceGolden, SupplyUpsFaultsReportLoss) {
  expect_golden(
      "utilization = 0.7\n"
      "seed = 33\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 60\n"
      "supply = sine 420 120 48\n"
      "ups = 90000 220 160 0.8\n"
      "ups_failure = 30 40\n"
      "report_loss_probability = 0.1\n"
      "link_up_loss_probability = 0.05\n"
      "link_up_delay_probability = 0.05\n"
      "link_up_duplicate_probability = 0.02\n"
      "link_down_loss_probability = 0.05\n"
      "link_down_duplicate_probability = 0.02\n"
      "power_sensor_stuck_probability = 0.02\n"
      "power_sensor_bias_probability = 0.02\n"
      "power_sensor_dropout_probability = 0.02\n"
      "temp_sensor_stuck_probability = 0.02\n"
      "temp_sensor_bias_probability = 0.02\n"
      "temp_sensor_dropout_probability = 0.02\n"
      "sensor_fault_mean_ticks = 5\n"
      "crash_probability = 0.01\n"
      "crash_down_ticks = 5\n"
      "stale_timeout_ticks = 3\n",
      0xdb5c947a6c8a10b2ull);
}

TEST(TraceGolden, DeterministicCoolingHotZoneFfd) {
  expect_golden(
      "utilization = 0.6\n"
      "seed = 45\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 40\n"
      "demand_quantum_w = 0\n"
      "cooling_cop = 4.0\n"
      "hot_zone_servers = 4\n"
      "hot_ambient_c = 40\n"
      "supply = steps 480 480 300 300 480\n"
      "packing = ffd\n"
      "prefer_local = false\n",
      0x81d62cc54f32ee65ull);
}

}  // namespace
}  // namespace willow::sim
