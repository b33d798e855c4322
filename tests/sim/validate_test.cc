// SimConfig::validate(): structured error reporting — every problem named,
// all at once — and its enforcement by the Simulation constructor and the
// scenario parser (including the schema_version gate).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "power/cooling.h"
#include "power/server_power.h"
#include "power/supply.h"
#include "power/switch_power.h"
#include "power/ups.h"
#include "workload/application.h"
#include "sim/scenario_io.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

bool mentions(const std::vector<std::string>& errors, const std::string& what) {
  for (const auto& e : errors) {
    if (e.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(SimConfigValidate, DefaultConfigIsValid) {
  EXPECT_TRUE(SimConfig{}.validate().empty());
}

TEST(SimConfigValidate, ZeroServerLayoutIsNamed) {
  SimConfig cfg;
  cfg.datacenter.layout.servers_per_rack = 0;
  EXPECT_TRUE(mentions(cfg.validate(), "datacenter.layout"));
}

TEST(SimConfigValidate, LayoutsPastTheNodeIdRangeAreNamed) {
  // 1 + zones + racks + servers must stay below hier::kNoNode, and a layout
  // whose products overflow size_t must not wrap into a small fleet.
  constexpr std::size_t kNoNode = hier::kNoNode;
  const std::vector<DatacenterLayout> too_large = {
      {std::size_t{1} << 31, 3, 3},
      {std::size_t{1} << 32, std::size_t{1} << 32, 1},  // product wraps to 0
      {4, 2, std::size_t{1} << 62},
      {std::numeric_limits<std::size_t>::max(), 1, 1},
      {1, 1, kNoNode - 3},  // exactly kNoNode nodes
  };
  for (const auto& layout : too_large) {
    SimConfig cfg;
    cfg.datacenter.layout = layout;
    EXPECT_TRUE(mentions(cfg.validate(), "too many nodes"))
        << layout.zones << " x " << layout.racks_per_zone << " x "
        << layout.servers_per_rack;
  }
  SimConfig largest;
  largest.datacenter.layout = {1, 1, kNoNode - 4};
  EXPECT_EQ(largest.datacenter.layout.node_count(), kNoNode - 1);
  EXPECT_TRUE(largest.validate().empty());
}

TEST(SimConfigValidate, NegativeWattagesAreNamed) {
  SimConfig cfg;
  cfg.demand_quantum = util::Watts{-1.0};
  cfg.rack_circuit_limit = util::Watts{-5.0};
  const auto errors = cfg.validate();
  EXPECT_TRUE(mentions(errors, "demand_quantum"));
  EXPECT_TRUE(mentions(errors, "rack_circuit_limit"));
}

TEST(SimConfigValidate, UpsWithoutSupplyIsNamed) {
  SimConfig cfg;
  cfg.ups = power::Ups(util::Joules{100.0}, 50_W, 20_W, 1.0);
  EXPECT_TRUE(mentions(cfg.validate(), "ups"));
  cfg.supply = std::make_shared<power::ConstantSupply>(500_W);
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(SimConfigValidate, ProbabilityAndTickRangesAreNamed) {
  SimConfig cfg;
  cfg.churn_probability = 1.5;
  cfg.report_loss_probability = -0.1;
  cfg.warmup_ticks = -1;
  const auto errors = cfg.validate();
  EXPECT_TRUE(mentions(errors, "churn_probability"));
  EXPECT_TRUE(mentions(errors, "report_loss_probability"));
  EXPECT_TRUE(mentions(errors, "warmup_ticks"));
}

TEST(SimConfigValidate, NanFieldsAreNamed) {
  // NaN fails no ordered comparison, so every range check must be written to
  // reject it explicitly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::function<void(SimConfig&)>>>
      cases{
          {"churn_probability",
           [&](SimConfig& c) { c.churn_probability = nan; }},
          {"report_loss_probability",
           [&](SimConfig& c) { c.report_loss_probability = nan; }},
          {"ipc_chain_fraction",
           [&](SimConfig& c) { c.ipc_chain_fraction = nan; }},
          {"ipc_flow_units", [&](SimConfig& c) { c.ipc_flow_units = nan; }},
          {"demand_quantum",
           [&](SimConfig& c) { c.demand_quantum = util::Watts{nan}; }},
          {"sla_inflation", [&](SimConfig& c) { c.sla_inflation = nan; }},
          {"mix.unit_power",
           [&](SimConfig& c) { c.mix.unit_power = util::Watts{nan}; }},
          {"rack_circuit_limit",
           [&](SimConfig& c) { c.rack_circuit_limit = util::Watts{nan}; }},
      };
  for (const auto& [field, set] : cases) {
    SimConfig cfg;
    set(cfg);
    EXPECT_TRUE(mentions(cfg.validate(), field)) << field << " = nan accepted";
  }
}

TEST(LibraryArgumentChecks, NanIsRejected) {
  // The same rule for the library's own constructors and setters: a NaN
  // argument is rejected like a negative one.
  using util::Joules;
  using util::Watts;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(workload::Application(1, 0, Watts{nan}, 512_MB),
               std::invalid_argument);
  workload::Application app(1, 0, 10_W, 512_MB);
  EXPECT_THROW(app.set_service_level(nan), std::invalid_argument);
  EXPECT_THROW(power::ServerPowerModel(Watts{nan}, 200_W),
               std::invalid_argument);
  EXPECT_THROW(power::ServerPowerModel(100_W, Watts{nan}),
               std::invalid_argument);
  EXPECT_THROW(power::SwitchPowerModel(Watts{nan}, 40.0),
               std::invalid_argument);
  EXPECT_THROW(power::SwitchPowerModel(5_W, nan), std::invalid_argument);
  EXPECT_THROW(power::Ups(Joules{nan}, 10_W, 10_W, 0.5),
               std::invalid_argument);
  EXPECT_THROW(power::Ups(Joules{100.0}, Watts{nan}, 10_W, 0.5),
               std::invalid_argument);
  EXPECT_THROW(power::Ups(Joules{100.0}, 10_W, Watts{nan}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(power::Ups(Joules{100.0}, 10_W, 10_W, nan),
               std::invalid_argument);
  power::CoolingConfig cooling;
  cooling.fan_floor = Watts{nan};
  EXPECT_THROW(power::CoolingModel{cooling}, std::invalid_argument);

  core::Cluster cluster;
  const auto root = cluster.add_root("dc");
  const auto rack = cluster.add_group(root, "rack");
  const auto server = cluster.add_server(rack, "s", core::ServerConfig{});
  EXPECT_THROW(cluster.set_group_circuit_limit(rack, Watts{nan}),
               std::invalid_argument);
  EXPECT_THROW(cluster.add_temporary_demand(server, Watts{nan}, 1),
               std::invalid_argument);
}

TEST(ControllerConfigValidate, NanAndNegativeFieldsAreNamed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using core::ControllerConfig;
  const std::vector<
      std::pair<std::string, std::function<void(ControllerConfig&)>>>
      cases{
          {"margin", [&](ControllerConfig& c) { c.margin = util::Watts{nan}; }},
          {"migration_cost",
           [&](ControllerConfig& c) { c.migration_cost = util::Watts{nan}; }},
          {"consolidation_threshold",
           [&](ControllerConfig& c) { c.consolidation_threshold = nan; }},
          {"report_deadband",
           [&](ControllerConfig& c) { c.report_deadband = util::Watts{nan}; }},
          {"migration_periods_per_gib",
           [&](ControllerConfig& c) { c.migration_periods_per_gib = nan; }},
          {"migration_periods_per_gib",
           [&](ControllerConfig& c) { c.migration_periods_per_gib = -1.0; }},
      };
  for (const auto& [field, set] : cases) {
    ControllerConfig cfg;
    set(cfg);
    try {
      cfg.validate();
      ADD_FAILURE() << field << ": invalid value accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(SimConfigValidate, RunTimeRejectionsAreNamed) {
  // Values that ThermalModel construction or FlowSet::add would reject must
  // fail validation (and so willow_cli --check), not the run.
  const std::vector<std::pair<std::string, std::function<void(SimConfig&)>>>
      cases{
          {"datacenter.server.thermal",
           [](SimConfig& c) { c.datacenter.server.thermal.c1 = 0.0; }},
          {"datacenter.server.thermal",
           [](SimConfig& c) { c.datacenter.server.thermal.c1 = -0.08; }},
          {"datacenter.server.thermal",
           [](SimConfig& c) { c.datacenter.server.thermal.c2 = 0.0; }},
          {"datacenter.server.thermal",
           [](SimConfig& c) {
             c.datacenter.server.thermal.nameplate = util::Watts{-5.0};
           }},
          {"ipc_flow_units", [](SimConfig& c) { c.ipc_flow_units = -1.0; }},
          // The build sizes each server's workload to target_utilization x
          // the sustainable dynamic power; past the nameplate (or infinite)
          // it would append apps until memory runs out.
          {"datacenter.server.thermal.nameplate",
           [](SimConfig& c) { c.datacenter.server.thermal.c2 = 1e308; }},
          {"datacenter.server.thermal.nameplate",
           [](SimConfig& c) {
             c.datacenter.server.thermal.limit = util::Celsius{1e300};
           }},
          {"datacenter.server.thermal.nameplate",
           [](SimConfig& c) { c.datacenter.server.thermal.c1 = 1e-300; }},
          {"target_utilization",
           [](SimConfig& c) {
             c.datacenter.server.thermal.nameplate = util::Watts{1.0};
           }},
      };
  for (const auto& [field, set] : cases) {
    SimConfig cfg;
    set(cfg);
    EXPECT_TRUE(mentions(cfg.validate(), field)) << field << " accepted";
  }
}

TEST(SimConfigValidate, TargetDemandUpToTheNameplateIsAccepted) {
  SimConfig cfg;
  cfg.target_utilization = 1.5;
  const double target = cfg.sustainable_dynamic_w() * cfg.target_utilization;
  cfg.datacenter.server.thermal.nameplate = util::Watts{target};
  EXPECT_TRUE(cfg.validate().empty());
  cfg.datacenter.server.thermal.nameplate = util::Watts{0.99 * target};
  EXPECT_TRUE(mentions(cfg.validate(), "target_utilization"));
}

TEST(SimConfigValidate, CollectsEveryProblemNotJustTheFirst) {
  SimConfig cfg;
  cfg.datacenter.layout.zones = 0;
  cfg.demand_quantum = util::Watts{-1.0};
  cfg.churn_probability = 2.0;
  EXPECT_GE(cfg.validate().size(), 3u);
}

TEST(SimConfigValidate, BadAmbientEventIsNamedWithIndex) {
  SimConfig cfg;
  cfg.ambient_events.push_back({-3, 5, 2, 40_degC});
  const auto errors = cfg.validate();
  EXPECT_TRUE(mentions(errors, "ambient_events[0]"));
  EXPECT_GE(errors.size(), 2u);  // negative tick AND first > last
}

TEST(SimConfigValidate, ServerRangesOutsideTheFleetAreNamed) {
  SimConfig cfg;  // 18 servers
  const auto fleet = cfg.datacenter.layout.total_servers();
  cfg.ambient_events.push_back({5, 0, fleet - 1, 40_degC});  // fits
  cfg.ambient_events.push_back({5, 10, fleet, 40_degC});
  cfg.faults.crash_events.push_back({40, 0, fleet - 1, 8});  // fits
  cfg.faults.crash_events.push_back({40, 500, 600, 8});
  const auto errors = cfg.validate();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_TRUE(mentions(errors, "ambient_events[1]"));
  EXPECT_TRUE(mentions(errors, "faults.crash_event[1]"));
  EXPECT_TRUE(mentions(errors, std::to_string(fleet) + "-server fleet"));
}

TEST(SimulationCtor, ThrowsAggregatedMessageOnInvalidConfig) {
  SimConfig cfg;
  cfg.datacenter.layout.zones = 0;
  cfg.demand_quantum = util::Watts{-2.0};
  try {
    Simulation sim(std::move(cfg));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("datacenter.layout"), std::string::npos);
    EXPECT_NE(what.find("demand_quantum"), std::string::npos);
  }
}

TEST(ScenarioSchemaVersion, CurrentAndV1Accepted) {
  std::istringstream v2("schema_version = 2\nutilization = 0.5\n");
  EXPECT_EQ(parse_scenario(v2).target_utilization, 0.5);
  std::istringstream v1("schema_version = 1\nutilization = 0.4\n");
  EXPECT_EQ(parse_scenario(v1).target_utilization, 0.4);
}

TEST(ScenarioSchemaVersion, NewerVersionRejectedWithLineNumber) {
  std::istringstream in("utilization = 0.5\nschema_version = 99\n");
  try {
    parse_scenario(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos);
    EXPECT_NE(what.find("schema_version"), std::string::npos);
  }
}

TEST(ScenarioValidation, StructuralErrorsSurfaceThroughParser) {
  std::istringstream in("servers_per_rack = 0\n");
  try {
    parse_scenario(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("datacenter.layout"),
              std::string::npos);
  }
}

TEST(ScenarioValidation, UnbuildableTargetDemandFailsTheCheck) {
  // willow_cli --check used to print ok for these; the run died in the
  // workload build.
  for (const char* text : {"thermal_c2 = 1e308\n", "thermal_limit_c = 1e300\n",
                           "thermal_c2 = 9223372036854775807\n"}) {
    std::istringstream in(text);
    try {
      parse_scenario(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("target_utilization"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioValidation, HotZoneOverAnOversizedLayoutNamesItsLine) {
  // The hot zone sizes a per-server vector by the fleet; an oversized layout
  // used to surface as std::bad_alloc with no line number.
  std::istringstream in("zones = 2147483648\nhot_zone_servers = 4\n");
  try {
    parse_scenario(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("hot_zone_servers"), std::string::npos) << what;
  }
}

TEST(ScenarioValidation, UnknownKeyStillNamed) {
  std::istringstream in("not_a_key = 1\n");
  try {
    parse_scenario(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not_a_key"), std::string::npos);
  }
}

}  // namespace
}  // namespace willow::sim
