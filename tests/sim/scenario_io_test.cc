#include "sim/scenario_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace willow::sim {
namespace {

SimConfig parse(const std::string& text) {
  std::istringstream is(text);
  return parse_scenario(is);
}

TEST(ScenarioIo, EmptyInputYieldsDefaults) {
  const auto cfg = parse("");
  EXPECT_DOUBLE_EQ(cfg.target_utilization, 0.5);
  EXPECT_EQ(cfg.datacenter.layout.total_servers(), 18u);
  EXPECT_DOUBLE_EQ(cfg.datacenter.server.thermal.c1, 0.08);
}

TEST(ScenarioIo, CommentsAndBlanksIgnored) {
  const auto cfg = parse(R"(
# a comment
utilization = 0.7   # trailing comment

seed = 99
)");
  EXPECT_DOUBLE_EQ(cfg.target_utilization, 0.7);
  EXPECT_EQ(cfg.seed, 99ull);
}

TEST(ScenarioIo, LayoutKeys) {
  const auto cfg = parse(
      "zones = 3\nracks_per_zone = 2\nservers_per_rack = 4\n");
  EXPECT_EQ(cfg.datacenter.layout.zones, 3u);
  EXPECT_EQ(cfg.datacenter.layout.racks_per_zone, 2u);
  EXPECT_EQ(cfg.datacenter.layout.servers_per_rack, 4u);
  EXPECT_EQ(cfg.datacenter.layout.total_servers(), 24u);
}

TEST(ScenarioIo, ControllerKeys) {
  const auto cfg = parse(R"(
margin_w = 2.5
migration_cost_w = 0.75
eta1 = 3
eta2 = 9
consolidation_threshold = 0.3
packing = bfd
allocation = capacity
prefer_local = false
enforce_unidirectional = no
shedding = degrade
degraded_service_level = 0.6
)");
  EXPECT_DOUBLE_EQ(cfg.controller.margin.value(), 2.5);
  EXPECT_DOUBLE_EQ(cfg.controller.migration_cost.value(), 0.75);
  EXPECT_EQ(cfg.controller.eta1, 3);
  EXPECT_EQ(cfg.controller.eta2, 9);
  EXPECT_EQ(cfg.controller.packing, binpack::Algorithm::kBestFitDecreasing);
  EXPECT_EQ(cfg.controller.allocation,
            core::AllocationPolicy::kProportionalToCapacity);
  EXPECT_FALSE(cfg.controller.prefer_local);
  EXPECT_FALSE(cfg.controller.enforce_unidirectional);
  EXPECT_EQ(cfg.controller.shedding, core::SheddingPolicy::kDegradeThenDrop);
  EXPECT_DOUBLE_EQ(cfg.controller.degraded_service_level, 0.6);
}

TEST(ScenarioIo, HotZoneOverrides) {
  const auto cfg = parse(
      "servers_per_rack = 3\nhot_zone_servers = 4\nhot_ambient_c = 40\n");
  ASSERT_EQ(cfg.datacenter.ambient_overrides.size(), 18u);
  EXPECT_DOUBLE_EQ(cfg.datacenter.ambient_overrides[13].value(), 25.0);
  EXPECT_DOUBLE_EQ(cfg.datacenter.ambient_overrides[14].value(), 40.0);
  EXPECT_DOUBLE_EQ(cfg.datacenter.ambient_overrides[17].value(), 40.0);
}

TEST(ScenarioIo, HotZoneLargerThanFleetFails) {
  EXPECT_THROW(parse("hot_zone_servers = 100\n"), std::runtime_error);
}

TEST(ScenarioIo, SupplyVariants) {
  auto cfg = parse("supply = constant 500\n");
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{3.0}).value(), 500.0);

  cfg = parse("supply = steps 100 200 300\n");
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{1.5}).value(), 200.0);

  cfg = parse("supply = sine 100 50 4\n");
  EXPECT_NEAR(cfg.supply->at(util::Seconds{1.0}).value(), 150.0, 1e-9);

  cfg = parse("supply = solar 220 350 48 0.4 11\n");
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{0.0}).value(), 220.0);

  cfg = parse("supply = fig15\n");
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{7.0}).value(), 610.0);

  cfg = parse("supply = fig19\n");
  EXPECT_NEAR(cfg.supply->at(util::Seconds{0.0}).value(), 760.0, 1e-9);
}

TEST(ScenarioIo, SupplyFromCsvFile) {
  const std::string path = ::testing::TempDir() + "/willow_supply_trace.csv";
  {
    std::ofstream f(path);
    f << "t,watts\n0,111\n1,222\n";
  }
  const auto cfg = parse("supply = csv " + path + "\n");
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{0.0}).value(), 111.0);
  EXPECT_DOUBLE_EQ(cfg.supply->at(util::Seconds{1.5}).value(), 222.0);
  std::remove(path.c_str());
  EXPECT_THROW(parse("supply = csv /no/such/file.csv\n"), std::runtime_error);
}

TEST(ScenarioIo, IntensityVariants) {
  auto cfg = parse("intensity = constant 0.8\n");
  ASSERT_TRUE(cfg.intensity);
  EXPECT_DOUBLE_EQ(cfg.intensity->at(util::Seconds{5.0}), 0.8);

  cfg = parse("intensity = diurnal 1 0.4 48\n");
  EXPECT_NEAR(cfg.intensity->at(util::Seconds{12.0}), 1.4, 1e-12);

  cfg = parse("intensity = diurnal 1 0.4 48 12\n");
  EXPECT_NEAR(cfg.intensity->at(util::Seconds{24.0}), 1.4, 1e-12);

  cfg = parse("intensity = trace 0.5 1.0 1.5\n");
  EXPECT_DOUBLE_EQ(cfg.intensity->at(util::Seconds{1.0}), 1.0);

  EXPECT_THROW(parse("intensity = waves 1 2\n"), std::runtime_error);
  EXPECT_THROW(parse("intensity = diurnal 1\n"), std::runtime_error);
}

TEST(ScenarioIo, ExtensionKeys) {
  const auto cfg = parse(
      "sla_inflation = 5\nreport_loss_probability = 0.1\n"
      "migration_periods_per_gib = 2\nrack_circuit_w = 120\n");
  EXPECT_DOUBLE_EQ(cfg.sla_inflation, 5.0);
  EXPECT_DOUBLE_EQ(cfg.report_loss_probability, 0.1);
  EXPECT_DOUBLE_EQ(cfg.controller.migration_periods_per_gib, 2.0);
  ASSERT_TRUE(cfg.rack_circuit_limit.has_value());
  EXPECT_DOUBLE_EQ(cfg.rack_circuit_limit->value(), 120.0);
  EXPECT_THROW(parse("report_loss_probability = 1.5\n"), std::runtime_error);
}

TEST(ScenarioIo, CoolingKey) {
  auto cfg = parse("cooling_cop = 4.0\n");
  ASSERT_TRUE(cfg.cooling.has_value());
  EXPECT_DOUBLE_EQ(cfg.cooling->cop(util::Celsius{25.0}), 4.0);
  EXPECT_FALSE(parse("").cooling.has_value());
}

TEST(ScenarioIo, IpcAndWorkloadKeys) {
  const auto cfg = parse(
      "ipc_chain_fraction = 0.5\nipc_flow_units = 0.1\n"
      "priority_levels = 3\ndemand_quantum_w = 0.5\n");
  EXPECT_DOUBLE_EQ(cfg.ipc_chain_fraction, 0.5);
  EXPECT_DOUBLE_EQ(cfg.ipc_flow_units, 0.1);
  EXPECT_EQ(cfg.mix.priority_levels, 3);
  EXPECT_DOUBLE_EQ(cfg.demand_quantum.value(), 0.5);
}

TEST(ScenarioIo, ErrorsCarryLineNumbers) {
  // An unknown key, an integer outside its field's range (rejected by the
  // parser, not left to wrap before validation), values a model's
  // constructor or the CSV loader rejects, and a hot zone larger than the
  // fleet (checked once the layout is known, reported at its own line).
  for (const auto& [text, word] :
       {std::pair<std::string, std::string>{
            "utilization = 0.5\nbogus_key = 3\n", "bogus_key"},
        {"seed = 1\nzones = -1\n", "-1"},
        {"seed = 1\ncooling_cop = 0\n", "COP"},
        {"seed = 1\nsupply = sine 100 -5 0\n", "period"},
        {"seed = 1\nsupply = solar 100 50 0 2 1\n", "day_length"},
        {"seed = 1\nintensity = constant -1\n", "negative factor"},
        {"seed = 1\nintensity = diurnal 1 0.5 0\n", "period"},
        {"seed = 1\nintensity = trace -1 2\n", "negative factor"},
        {"seed = 1\nsupply = csv /nonexistent.csv\n", "/nonexistent.csv"},
        {"servers_per_rack = 1\nhot_zone_servers = 50\n",
         "hot_zone_servers exceeds fleet size"}}) {
    try {
      parse(text);
      FAIL() << "expected throw: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(word), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioIo, MalformedInputsFail) {
  EXPECT_THROW(parse("utilization 0.5\n"), std::runtime_error);      // no '='
  EXPECT_THROW(parse("utilization = abc\n"), std::runtime_error);    // no number
  EXPECT_THROW(parse("utilization = 99\n"), std::runtime_error);     // range
  EXPECT_THROW(parse("eta1 = 2.5\n"), std::runtime_error);           // non-int
  EXPECT_THROW(parse("prefer_local = maybe\n"), std::runtime_error); // bool
  EXPECT_THROW(parse("supply = warp 9\n"), std::runtime_error);      // kind
  EXPECT_THROW(parse("supply = sine 1\n"), std::runtime_error);      // arity
  EXPECT_THROW(parse("packing = quantum\n"), std::runtime_error);
  EXPECT_THROW(parse("= 5\n"), std::runtime_error);
  EXPECT_THROW(parse("margin_w = nan\n"), std::runtime_error);      // NaN
  EXPECT_THROW(parse("utilization = inf\n"), std::runtime_error);   // infinite
  EXPECT_THROW(parse("warmup_ticks = 1e30\n"), std::runtime_error); // > long
  // Integer keys are range-checked before they narrow to their field.
  EXPECT_THROW(parse("zones = -1\n"), std::runtime_error);           // count
  EXPECT_THROW(parse("eta1 = 4294967297\n"), std::runtime_error);    // > int
  EXPECT_THROW(parse("stale_timeout_ticks = 4294967297\n"),
               std::runtime_error);                                  // > int
  EXPECT_THROW(parse("priority_levels = -3\n"), std::runtime_error);
  EXPECT_THROW(parse("hot_zone_servers = -5\n"), std::runtime_error);
  EXPECT_THROW(parse("crash_event = 5 -1 -1\n"), std::runtime_error); // index
  // Server ranges must fit the default 18-server fleet.
  EXPECT_THROW(parse("crash_event = 40 500 600 8\n"), std::runtime_error);
  EXPECT_THROW(parse("crash_event = 40 10 25 8\n"), std::runtime_error);
  // Seeds are exact unsigned 64-bit integers, not doubles.
  EXPECT_THROW(parse("seed = -1\n"), std::runtime_error);
  EXPECT_THROW(parse("seed = 1.5\n"), std::runtime_error);
  EXPECT_THROW(parse("seed = 18446744073709551616\n"), std::runtime_error);
  EXPECT_THROW(parse("supply = solar 220 350 48 0.4 -5\n"),
               std::runtime_error);
  // A supply never delivers negative watts.
  EXPECT_THROW(parse("supply = constant -10\n"), std::runtime_error);
  EXPECT_THROW(parse("supply = steps 480 -5\n"), std::runtime_error);
  EXPECT_THROW(parse("supply = solar -1 350 48 0.4 11\n"), std::runtime_error);
  EXPECT_THROW(parse("supply = solar 220 -350 48 0.4 11\n"),
               std::runtime_error);
  // Cross-field validation still applies (eta2 must exceed eta1).
  EXPECT_THROW(parse("eta1 = 7\neta2 = 7\n"), std::runtime_error);
  // Rejected by validation, not first by the run.
  EXPECT_THROW(parse("thermal_c1 = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("thermal_c1 = -0.08\n"), std::runtime_error);
  EXPECT_THROW(parse("thermal_c2 = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("nameplate_w = -5\n"), std::runtime_error);
  EXPECT_THROW(parse("ipc_flow_units = -1\n"), std::runtime_error);
}

TEST(ScenarioIo, SeedsAboveTwoToThe53RoundTrip) {
  EXPECT_EQ(parse("seed = 9007199254740993\n").seed, 9007199254740993ull);
  EXPECT_EQ(parse("seed = 18446744073709551615\n").seed,
            18446744073709551615ull);
}

TEST(ScenarioIo, LoadFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/willow_scenario_test.txt";
  {
    std::ofstream f(path);
    f << "utilization = 0.25\nseed = 7\nsupply = constant 400\n";
  }
  const auto cfg = load_scenario_file(path);
  EXPECT_DOUBLE_EQ(cfg.target_utilization, 0.25);
  EXPECT_EQ(cfg.seed, 7ull);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file("/no/such/file"), std::runtime_error);
}

TEST(ScenarioIo, FuzzedInputNeverCrashes) {
  // Random line soup: the parser must always either succeed or throw
  // runtime_error with a line number — never crash or throw anything else.
  util::Rng rng(99);
  const std::vector<std::string> keys{
      "utilization", "seed",  "zones",   "margin_w", "supply",
      "packing",     "bogus", "eta1",    "shedding", "intensity",
      "sla_inflation", "",    "  # c",   "alpha"};
  const std::vector<std::string> values{
      "0.5", "abc",      "-3",       "1e9", "constant 100", "ffdlr",
      "",    "= = =",    "true",     "nan", "diurnal 1",    "0.7",
      "steps", "csv /no/file", "1.5.2"};
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const int lines = rng.uniform_int(0, 6);
    for (int l = 0; l < lines; ++l) {
      text += keys[rng.index(keys.size())];
      if (rng.chance(0.8)) text += " = ";
      text += values[rng.index(values.size())];
      text += "\n";
    }
    try {
      std::istringstream is(text);
      (void)parse_scenario(is);
    } catch (const std::runtime_error&) {
      // expected for malformed soup
    }
  }
  SUCCEED();
}

TEST(ScenarioIo, ParsedConfigActuallyRuns) {
  auto cfg = parse(
      "utilization = 0.3\nwarmup_ticks = 5\nmeasure_ticks = 10\nseed = 1\n");
  const auto r = run_simulation(std::move(cfg));
  EXPECT_EQ(r.ticks, 10);
}

TEST(ScenarioIo, FaultKeys) {
  const auto cfg = parse(R"(
supply = sine 420 120 48
link_up_loss_probability = 0.05
link_up_delay_probability = 0.04
link_up_duplicate_probability = 0.03
link_down_loss_probability = 0.02
link_down_duplicate_probability = 0.01
power_sensor_stuck_probability = 0.011
power_sensor_bias_probability = 0.012
power_sensor_dropout_probability = 0.013
power_sensor_bias_w = 4.5
temp_sensor_stuck_probability = 0.021
temp_sensor_bias_probability = 0.022
temp_sensor_dropout_probability = 0.023
temp_sensor_bias_c = -2.5
sensor_fault_mean_ticks = 7
crash_probability = 0.002
crash_down_ticks = 12
crash_event = 40 0 1 8
crash_event = 55 3 3
ups = 90000 220 160 0.8
ups_failure = 60 80
stale_timeout_ticks = 3
stale_decay = 0.85
directive_retry_limit = 5
)");
  EXPECT_DOUBLE_EQ(cfg.faults.link.up_loss, 0.05);
  EXPECT_DOUBLE_EQ(cfg.faults.link.up_delay, 0.04);
  EXPECT_DOUBLE_EQ(cfg.faults.link.up_duplicate, 0.03);
  EXPECT_DOUBLE_EQ(cfg.faults.link.down_loss, 0.02);
  EXPECT_DOUBLE_EQ(cfg.faults.link.down_duplicate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.faults.power_sensor.stuck_probability, 0.011);
  EXPECT_DOUBLE_EQ(cfg.faults.power_sensor.bias, 4.5);
  EXPECT_DOUBLE_EQ(cfg.faults.temp_sensor.dropout_probability, 0.023);
  EXPECT_DOUBLE_EQ(cfg.faults.temp_sensor.bias, -2.5);
  EXPECT_DOUBLE_EQ(cfg.faults.sensor_fault_mean_ticks, 7.0);
  EXPECT_DOUBLE_EQ(cfg.faults.crash_probability, 0.002);
  EXPECT_EQ(cfg.faults.crash_down_ticks, 12);
  ASSERT_EQ(cfg.faults.crash_events.size(), 2u);
  EXPECT_EQ(cfg.faults.crash_events[0].tick, 40);
  EXPECT_EQ(cfg.faults.crash_events[0].first_server, 0u);
  EXPECT_EQ(cfg.faults.crash_events[0].last_server, 1u);
  EXPECT_EQ(cfg.faults.crash_events[0].down_ticks, 8);
  EXPECT_EQ(cfg.faults.crash_events[1].down_ticks, 10);  // default
  ASSERT_TRUE(cfg.ups.has_value());
  EXPECT_DOUBLE_EQ(cfg.ups->capacity().value(), 90000.0);
  EXPECT_DOUBLE_EQ(cfg.ups->state_of_charge(), 0.8);
  ASSERT_EQ(cfg.faults.ups_failures.size(), 1u);
  EXPECT_EQ(cfg.faults.ups_failures[0].first_tick, 60);
  EXPECT_EQ(cfg.faults.ups_failures[0].last_tick, 80);
  EXPECT_EQ(cfg.controller.stale_timeout_ticks, 3);
  EXPECT_DOUBLE_EQ(cfg.controller.stale_decay, 0.85);
  EXPECT_EQ(cfg.controller.directive_retry_limit, 5);
  EXPECT_TRUE(cfg.faults.enabled());
}

TEST(ScenarioIo, FaultKeysOutOfRangeFail) {
  EXPECT_THROW(parse("link_up_loss_probability = 1.5\n"), std::runtime_error);
  EXPECT_THROW(parse("crash_probability = -0.1\n"), std::runtime_error);
  EXPECT_THROW(parse("crash_event = 5 3 1\n"), std::runtime_error);
  EXPECT_THROW(parse("crash_event = 5\n"), std::runtime_error);
  EXPECT_THROW(parse("ups_failure = 80 60\n"), std::runtime_error);
  EXPECT_THROW(parse("ups = 100 -5 10\n"), std::runtime_error);
  EXPECT_THROW(parse("stale_decay = 1.5\n"), std::runtime_error);
  EXPECT_THROW(parse("directive_retry_limit = -1\n"), std::runtime_error);
}

TEST(ScenarioIo, ScenarioKeysRoundtrip) {
  // The registry is the machine-readable contract for `willow_cli --keys`
  // and the docs-drift checker: every key parses, and the samples are
  // mutually consistent — the concatenation of all of them is one valid
  // scenario.
  const auto& keys = scenario_keys();
  ASSERT_GE(keys.size(), 60u);
  std::string text;
  for (const auto& k : keys) {
    EXPECT_FALSE(k.key.empty());
    EXPECT_FALSE(k.sample.empty());
    text += std::string(k.key) + " = " + std::string(k.sample) + "\n";
  }
  const auto cfg = parse(text);
  EXPECT_TRUE(cfg.faults.enabled());
  EXPECT_TRUE(cfg.ups.has_value());
  EXPECT_TRUE(cfg.validate().empty());
}

}  // namespace
}  // namespace willow::sim
