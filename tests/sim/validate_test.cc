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

#include "power/supply.h"
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
      };
  for (const auto& [field, set] : cases) {
    SimConfig cfg;
    set(cfg);
    EXPECT_TRUE(mentions(cfg.validate(), field)) << field << " accepted";
  }
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
