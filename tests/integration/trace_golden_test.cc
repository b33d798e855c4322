// Golden output hashes for reference scenarios, pinned as FNV-1a constants.
// The thread-count tests only compare runs of the current code with each
// other; these constants compare it with every earlier version.  Each
// scenario runs at threads 1 and 4.
//
// Two outputs are pinned:
//  * the JSONL trace `willow_cli --trace` writes, so a change that moves any
//    draw of the tick engine (demand, churn, link, sensor or crash variates)
//    or any control decision fails here;
//  * the recorded results `willow_cli --csv` writes (supply, power and
//    migration series, per-server rows) plus the series and switch rows the
//    CLI leaves out (imbalance, intensity, traffic, QoS, cooling).  The trace
//    carries none of the per-tick aggregates the record stage computes, so
//    these pins are what holds IT power, Eq. (9) imbalance and the per-server
//    statistics to the bit.  Values are rendered as hex floats: the CLI's
//    fixed 3-5 digits would hide a last-bit drift.
//
// The scenarios cover, between them: Poisson means below and above 12 (the
// two branches of the Poisson sampler), churn, QoS, IPC flows, degrade-mode
// shedding, migration latency, a sine supply through a UPS with a failure
// window, report loss, link/sensor/crash faults with stale timeouts,
// deterministic demand, the cooling plant, a hot zone, stepped supply, FFD
// packing, and consolidation sleeps followed by wakes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
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

SimConfig config_of(const std::string& scenario, int threads) {
  std::istringstream in(scenario + "\nthreads = " + std::to_string(threads) +
                        "\n");
  return parse_scenario(in);
}

/// What willow_cli does with `--trace`: parse, add a JSONL sink, run.
std::string trace_of(const std::string& scenario, int threads) {
  auto cfg = config_of(scenario, threads);
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

// ---- Recorded results, rendered exactly --------------------------------

void put(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, ",%a", v);
  os << buf;
}

void put(std::ostream& os, const util::RunningStats& st) {
  os << ',' << st.count();
  for (const double v : {st.sum(), st.mean(), st.variance(), st.min(),
                         st.max()}) {
    put(os, v);
  }
}

void put_series(std::ostream& os, const char* name,
                const util::TimeSeries& series) {
  os << "# " << name << '\n';
  for (std::size_t i = 0; i < series.size(); ++i) {
    os << i;
    put(os, series.times()[i]);
    put(os, series.at(i));
    os << '\n';
  }
}

/// willow_cli's --csv tables (series, then per-server rows keyed by PMU
/// leaf), followed by the series and per-switch rows it does not write, with
/// every double as an exact hex float.
std::string csv_of(const SimResult& r) {
  std::ostringstream os;
  put_series(os, "supply_w", r.supply_series);
  put_series(os, "consumed_w", r.total_power);
  put_series(os, "migrations", r.migrations_per_tick);
  put_series(os, "demand_migrations", r.demand_migrations_per_tick);
  put_series(os, "consolidation_migrations",
             r.consolidation_migrations_per_tick);
  put_series(os, "normalized_migration_traffic",
             r.normalized_migration_traffic);
  put_series(os, "remote_flow_traffic", r.remote_flow_traffic);
  put_series(os, "mean_flow_hops", r.mean_flow_hops);
  put_series(os, "imbalance", r.imbalance);
  put_series(os, "intensity", r.intensity_series);
  put_series(os, "facility_power", r.facility_power);
  put_series(os, "pue", r.pue);
  put_series(os, "qos_satisfaction", r.qos_satisfaction);
  put_series(os, "qos_mean_inflation", r.qos_mean_inflation);
  os << "# servers: node,server,power,temp,utilization,asleep,saved\n";
  for (std::size_t i = 0; i < r.server_nodes.size(); ++i) {
    const auto& m = r.servers[i];
    os << r.server_nodes[i] << ',' << i + 1;
    put(os, m.consumed_power);
    put(os, m.temperature);
    put(os, m.utilization);
    put(os, m.asleep_fraction);
    put(os, m.saved_power_w);
    os << '\n';
  }
  os << "# switches: group,power,traffic,migration_cost\n";
  for (const auto& m : r.level1_switches) {
    os << m.group;
    put(os, m.power);
    put(os, m.traffic);
    put(os, m.migration_cost);
    os << '\n';
  }
  os << "# run: ticks,max_temp,violation,quick,departures,arrivals\n"
     << r.ticks;
  put(os, r.max_temperature_c);
  os << ',' << r.thermal_violation << ',' << r.quick_remigrations << ','
     << r.churn_departures << ',' << r.churn_arrivals << '\n';
  return os.str();
}

void expect_csv_golden(const std::string& scenario, std::uint64_t golden) {
  for (const int threads : {1, 4}) {
    const std::string csv =
        csv_of(Simulation(config_of(scenario, threads)).run());
    EXPECT_EQ(fnv1a(csv), golden)
        << "threads = " << threads << ": csv hash 0x" << std::hex
        << fnv1a(csv);
  }
}

// ---- The reference scenarios ---------------------------------------------

const char* const kPlain =
    "utilization = 0.6\n"
    "seed = 9\n"
    "warmup_ticks = 10\n"
    "measure_ticks = 40\n";

// demand_quantum_w = 0.1 puts the class means 2, 5 and 9 W at Poisson means
// 20, 50 and 90 (halved under degrade, scaled by the diurnal intensity), so
// this scenario runs the rejection branch of the sampler.
const char* const kChurnQosIpcDegradeLatency =
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
    "migration_periods_per_gib = 0.5\n";

const char* const kSupplyUpsFaultsReportLoss =
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
    "stale_timeout_ticks = 3\n";

const char* const kDeterministicCoolingHotZoneFfd =
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
    "prefer_local = false\n";

TEST(TraceGolden, Plain) { expect_golden(kPlain, 0x83ebe7bdf1168af9ull); }

TEST(TraceGolden, ChurnQosIpcDegradeLatency) {
  expect_golden(kChurnQosIpcDegradeLatency, 0x44a4f81680ca3749ull);
}

TEST(TraceGolden, SupplyUpsFaultsReportLoss) {
  expect_golden(kSupplyUpsFaultsReportLoss, 0xdb5c947a6c8a10b2ull);
}

TEST(TraceGolden, DeterministicCoolingHotZoneFfd) {
  expect_golden(kDeterministicCoolingHotZoneFfd, 0x81d62cc54f32ee65ull);
}

TEST(CsvGolden, Plain) { expect_csv_golden(kPlain, 0xa1602f9f82826384ull); }

TEST(CsvGolden, ChurnQosIpcDegradeLatency) {
  expect_csv_golden(kChurnQosIpcDegradeLatency, 0x3a41bae2d66243f3ull);
}

TEST(CsvGolden, SupplyUpsFaultsReportLoss) {
  expect_csv_golden(kSupplyUpsFaultsReportLoss, 0x18b1e179c89df8f6ull);
}

TEST(CsvGolden, DeterministicCoolingHotZoneFfd) {
  expect_csv_golden(kDeterministicCoolingHotZoneFfd, 0x6d0c671ac787bfb2ull);
}

// Seeded variants on a larger fleet, one per regime the record stage sees:
// churn moving the hosted sets, constant demand at its fixed point, a UPS
// riding out a supply dip with crashed servers, a hot zone that binds the
// thermal clamp, and a low load that consolidates servers to sleep and then
// wakes them as the diurnal intensity climbs.

TEST(CsvGolden, ChurnVariant) {
  expect_csv_golden(
      "utilization = 0.7\n"
      "seed = 101\n"
      "warmup_ticks = 20\n"
      "measure_ticks = 60\n"
      "zones = 3\n"
      "racks_per_zone = 3\n"
      "servers_per_rack = 8\n"
      "churn_probability = 0.1\n",
      0xe168c001e5b6e472ull);
}

TEST(CsvGolden, QuantumZeroVariant) {
  expect_csv_golden(
      "utilization = 0.55\n"
      "seed = 102\n"
      "warmup_ticks = 40\n"
      "measure_ticks = 40\n"
      "zones = 3\n"
      "racks_per_zone = 3\n"
      "servers_per_rack = 8\n"
      "demand_quantum_w = 0\n",
      0x83456f1ef41690b3ull);
}

TEST(CsvGolden, FaultsUpsVariant) {
  expect_csv_golden(
      "utilization = 0.75\n"
      "seed = 103\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 60\n"
      "zones = 2\n"
      "racks_per_zone = 3\n"
      "servers_per_rack = 6\n"
      "supply = sine 700 250 30\n"
      "ups = 60000 300 200 0.9\n"
      "crash_probability = 0.02\n"
      "crash_down_ticks = 4\n"
      "power_sensor_bias_probability = 0.03\n"
      "link_down_loss_probability = 0.05\n"
      "stale_timeout_ticks = 2\n",
      0x838a694838865e0dull);
}

TEST(CsvGolden, HotZoneVariant) {
  expect_csv_golden(
      "utilization = 0.8\n"
      "seed = 104\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 50\n"
      "zones = 2\n"
      "racks_per_zone = 3\n"
      "servers_per_rack = 6\n"
      "hot_zone_servers = 12\n"
      "hot_ambient_c = 42\n",
      0xe87bc85c928b6219ull);
}

TEST(CsvGolden, SleepWakeVariant) {
  expect_csv_golden(
      "utilization = 0.25\n"
      "seed = 105\n"
      "warmup_ticks = 10\n"
      "measure_ticks = 80\n"
      "zones = 2\n"
      "racks_per_zone = 3\n"
      "servers_per_rack = 6\n"
      "intensity = diurnal 1.6 0.9 60\n",
      0x96270a4fe12bc78dull);
}

}  // namespace
}  // namespace willow::sim
