#include "sim/scenario_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "power/trace_io.h"

namespace willow::sim {

namespace {

using util::Seconds;
using util::Watts;

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("scenario line " + std::to_string(line) + ": " +
                           message);
}

double parse_double(const std::string& text, int line) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) fail(line, "trailing junk in number '" + text + "'");
    // No key takes an infinite or NaN value, and NaN slips past every
    // ordered range check downstream.
    if (!std::isfinite(v)) {
      fail(line, "expected a finite number, got '" + text + "'");
    }
    return v;
  } catch (const std::logic_error&) {
    fail(line, "expected a number, got '" + text + "'");
  }
}

long parse_long(const std::string& text, int line) {
  const double v = parse_double(text, line);
  // Range first: converting a double outside long's range is undefined.
  constexpr double kLongMin =
      static_cast<double>(std::numeric_limits<long>::min());  // -2^63, exact
  if (!(v >= kLongMin && v < -kLongMin)) {
    fail(line, "integer out of range: '" + text + "'");
  }
  const long l = static_cast<long>(v);
  if (static_cast<double>(l) != v) fail(line, "expected an integer, got '" + text + "'");
  return l;
}

/// A seed: the exact unsigned 64-bit integer written, digits only.  (Not
/// through parse_long's double, which would round values above 2^53 and
/// wrap negative ones.)
unsigned long long parse_seed(const std::string& text, int line) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    fail(line, "seed out of range: '" + text + "'");
  }
  if (ec != std::errc{} || ptr != end) {
    fail(line, "expected a non-negative integer seed, got '" + text + "'");
  }
  return v;
}

/// Watts that a supply delivers: never negative.
Watts parse_watts(const std::string& text, int line) {
  const double v = parse_double(text, line);
  if (v < 0.0) fail(line, "negative watts '" + text + "'");
  return Watts{v};
}

/// Runs a model's constructor on parsed values.  A rejection by the
/// constructor (std::invalid_argument) is reported with the line number.
template <class Build>
auto checked(int line, Build build) {
  try {
    return build();
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// An integer for a narrower field, checked against the field's range
/// [lo, hi] before the caller's cast: a value outside it would otherwise
/// wrap or narrow silently.
long parse_int_in(const std::string& text, int line, long lo, long hi) {
  const long v = parse_long(text, line);
  if (v < lo || v > hi) {
    fail(line, "integer '" + text + "' outside [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// An `int` field, optionally bounded below.
int parse_int(const std::string& text, int line,
              long lo = std::numeric_limits<int>::min()) {
  return static_cast<int>(
      parse_int_in(text, line, lo, std::numeric_limits<int>::max()));
}

/// A count or server index: never negative.
std::size_t parse_count(const std::string& text, int line) {
  return static_cast<std::size_t>(
      parse_int_in(text, line, 0, std::numeric_limits<long>::max()));
}

bool parse_bool(const std::string& text, int line) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  fail(line, "expected a boolean, got '" + text + "'");
}

std::vector<std::string> split_words(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> words;
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

std::shared_ptr<const power::SupplyProfile> parse_supply(
    const std::string& value, int line) {
  const auto words = split_words(value);
  if (words.empty()) fail(line, "empty supply specification");
  const std::string& kind = words[0];
  auto need = [&](std::size_t n) {
    if (words.size() != n + 1) {
      fail(line, "supply '" + kind + "' takes " + std::to_string(n) +
                     " arguments");
    }
  };
  if (kind == "constant") {
    need(1);
    return std::make_shared<power::ConstantSupply>(
        parse_watts(words[1], line));
  }
  if (kind == "steps") {
    if (words.size() < 2) fail(line, "steps supply needs at least one level");
    std::vector<Watts> levels;
    for (std::size_t i = 1; i < words.size(); ++i) {
      levels.push_back(parse_watts(words[i], line));
    }
    return std::make_shared<power::SteppedSupply>(std::move(levels),
                                                  Seconds{1.0});
  }
  if (kind == "sine") {
    need(3);
    return std::make_shared<power::SinusoidSupply>(
        Watts{parse_double(words[1], line)},
        Watts{parse_double(words[2], line)},
        Seconds{parse_double(words[3], line)});
  }
  if (kind == "solar") {
    need(5);
    return std::make_shared<power::SolarSupply>(
        parse_watts(words[1], line), parse_watts(words[2], line),
        Seconds{parse_double(words[3], line)}, parse_double(words[4], line),
        parse_seed(words[5], line));
  }
  if (kind == "csv") {
    need(1);
    try {
      return std::shared_ptr<const power::SupplyProfile>(
          power::load_supply_csv(words[1]).release());
    } catch (const std::runtime_error& e) {
      fail(line, e.what());
    }
  }
  if (kind == "fig15") {
    need(0);
    return std::shared_ptr<const power::SupplyProfile>(
        power::paper_fig15_trace().release());
  }
  if (kind == "fig19") {
    need(0);
    return std::shared_ptr<const power::SupplyProfile>(
        power::paper_fig19_trace().release());
  }
  fail(line, "unknown supply kind '" + kind + "'");
}

/// constant F | diurnal base amp period [phase] | trace f1 f2 ...
std::shared_ptr<const workload::IntensityProfile> parse_intensity(
    const std::string& value, int line) {
  const auto words = split_words(value);
  if (words.empty()) fail(line, "empty intensity specification");
  if (words[0] == "constant" && words.size() == 2) {
    return std::make_shared<workload::ConstantIntensity>(
        parse_double(words[1], line));
  }
  if (words[0] == "diurnal" && (words.size() == 4 || words.size() == 5)) {
    return std::make_shared<workload::DiurnalIntensity>(
        parse_double(words[1], line), parse_double(words[2], line),
        Seconds{parse_double(words[3], line)},
        Seconds{words.size() == 5 ? parse_double(words[4], line) : 0.0});
  }
  if (words[0] == "trace" && words.size() >= 2) {
    std::vector<double> factors;
    for (std::size_t i = 1; i < words.size(); ++i) {
      factors.push_back(parse_double(words[i], line));
    }
    return std::make_shared<workload::TraceIntensity>(std::move(factors),
                                                      Seconds{1.0});
  }
  fail(line, "intensity must be 'constant F', 'diurnal base amp period"
             " [phase]' or 'trace f...'");
}

binpack::Algorithm parse_packing(const std::string& text, int line) {
  if (text == "ffdlr") return binpack::Algorithm::kFfdlr;
  if (text == "ff") return binpack::Algorithm::kFirstFit;
  if (text == "ffd") return binpack::Algorithm::kFirstFitDecreasing;
  if (text == "bfd") return binpack::Algorithm::kBestFitDecreasing;
  if (text == "wfd") return binpack::Algorithm::kWorstFitDecreasing;
  fail(line, "unknown packing algorithm '" + text + "'");
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

SimConfig parse_scenario(std::istream& in) {
  SimConfig cfg;
  // Hot-zone directives are applied after layout keys are known.
  std::size_t hot_zone_servers = 0;
  double hot_ambient_c = 40.0;
  // Default to the paper's constants; scenario keys can override them.
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();

  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string text = trim(raw);
    if (text.empty()) continue;
    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line, "expected 'key = value'");
    const std::string key = trim(text.substr(0, eq));
    const std::string value = trim(text.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line, "empty key or value");

    if (key == "schema_version") {
      const long v = parse_long(value, line);
      if (v < 1 || v > kScenarioSchemaVersion) {
        fail(line, "unsupported schema_version " + std::to_string(v) +
                       " (this build reads versions 1.." +
                       std::to_string(kScenarioSchemaVersion) + ")");
      }
    } else if (key == "utilization") {
      cfg.target_utilization = parse_double(value, line);
      if (cfg.target_utilization < 0.0 || cfg.target_utilization > 1.5) {
        fail(line, "utilization out of range");
      }
    } else if (key == "seed") {
      cfg.seed = parse_seed(value, line);
    } else if (key == "warmup_ticks") {
      cfg.warmup_ticks = parse_long(value, line);
    } else if (key == "measure_ticks") {
      cfg.measure_ticks = parse_long(value, line);
    } else if (key == "zones") {
      cfg.datacenter.layout.zones = parse_count(value, line);
    } else if (key == "racks_per_zone") {
      cfg.datacenter.layout.racks_per_zone = parse_count(value, line);
    } else if (key == "servers_per_rack") {
      cfg.datacenter.layout.servers_per_rack = parse_count(value, line);
    } else if (key == "smoothing_alpha") {
      cfg.datacenter.smoothing_alpha = parse_double(value, line);
    } else if (key == "thermal_c1") {
      cfg.datacenter.server.thermal.c1 = parse_double(value, line);
    } else if (key == "thermal_c2") {
      cfg.datacenter.server.thermal.c2 = parse_double(value, line);
    } else if (key == "ambient_c") {
      cfg.datacenter.server.thermal.ambient =
          util::Celsius{parse_double(value, line)};
    } else if (key == "thermal_limit_c") {
      cfg.datacenter.server.thermal.limit =
          util::Celsius{parse_double(value, line)};
    } else if (key == "nameplate_w") {
      cfg.datacenter.server.thermal.nameplate =
          Watts{parse_double(value, line)};
    } else if (key == "hot_zone_servers") {
      hot_zone_servers = parse_count(value, line);
    } else if (key == "hot_ambient_c") {
      hot_ambient_c = parse_double(value, line);
    } else if (key == "margin_w") {
      cfg.controller.margin = Watts{parse_double(value, line)};
    } else if (key == "migration_cost_w") {
      cfg.controller.migration_cost = Watts{parse_double(value, line)};
    } else if (key == "eta1") {
      cfg.controller.eta1 = parse_int(value, line);
    } else if (key == "eta2") {
      cfg.controller.eta2 = parse_int(value, line);
    } else if (key == "consolidation_threshold") {
      cfg.controller.consolidation_threshold = parse_double(value, line);
    } else if (key == "packing") {
      cfg.controller.packing = parse_packing(value, line);
    } else if (key == "allocation") {
      if (value == "demand") {
        cfg.controller.allocation = core::AllocationPolicy::kProportionalToDemand;
      } else if (value == "capacity") {
        cfg.controller.allocation =
            core::AllocationPolicy::kProportionalToCapacity;
      } else {
        fail(line, "allocation must be 'demand' or 'capacity'");
      }
    } else if (key == "prefer_local") {
      cfg.controller.prefer_local = parse_bool(value, line);
    } else if (key == "enforce_unidirectional") {
      cfg.controller.enforce_unidirectional = parse_bool(value, line);
    } else if (key == "shedding") {
      if (value == "drop") {
        cfg.controller.shedding = core::SheddingPolicy::kDropWhole;
      } else if (value == "degrade") {
        cfg.controller.shedding = core::SheddingPolicy::kDegradeThenDrop;
      } else {
        fail(line, "shedding must be 'drop' or 'degrade'");
      }
    } else if (key == "degraded_service_level") {
      cfg.controller.degraded_service_level = parse_double(value, line);
    } else if (key == "priority_levels") {
      cfg.mix.priority_levels = parse_int(value, line, 0);
    } else if (key == "demand_quantum_w") {
      cfg.demand_quantum = Watts{parse_double(value, line)};
    } else if (key == "ipc_chain_fraction") {
      cfg.ipc_chain_fraction = parse_double(value, line);
    } else if (key == "ipc_flow_units") {
      cfg.ipc_flow_units = parse_double(value, line);
    } else if (key == "supply") {
      cfg.supply = checked(line, [&] { return parse_supply(value, line); });
    } else if (key == "intensity") {
      cfg.intensity = checked(line, [&] { return parse_intensity(value, line); });
    } else if (key == "sla_inflation") {
      cfg.sla_inflation = parse_double(value, line);
    } else if (key == "report_loss_probability") {
      cfg.report_loss_probability = parse_double(value, line);
      if (cfg.report_loss_probability < 0.0 ||
          cfg.report_loss_probability > 1.0) {
        fail(line, "report_loss_probability must be in [0,1]");
      }
    } else if (key == "churn_probability") {
      cfg.churn_probability = parse_double(value, line);
      if (cfg.churn_probability < 0.0 || cfg.churn_probability > 1.0) {
        fail(line, "churn_probability must be in [0,1]");
      }
    } else if (key == "incremental_control") {
      cfg.incremental_control = parse_bool(value, line);
    } else if (key == "shadow_diff") {
      cfg.shadow_diff = parse_bool(value, line);
    } else if (key == "report_deadband_w") {
      cfg.controller.report_deadband = Watts{parse_double(value, line)};
    } else if (key == "threads") {
      cfg.threads = parse_count(value, line);
    } else if (key == "migration_periods_per_gib") {
      cfg.controller.migration_periods_per_gib = parse_double(value, line);
    } else if (key == "rack_circuit_w") {
      cfg.rack_circuit_limit = Watts{parse_double(value, line)};
    } else if (key == "cooling_cop") {
      power::CoolingConfig cool;
      cool.cop_at_reference = parse_double(value, line);
      cfg.cooling = checked(line, [&] { return power::CoolingModel(cool); });
    } else if (key == "link_up_loss_probability") {
      cfg.faults.link.up_loss = parse_double(value, line);
    } else if (key == "link_up_delay_probability") {
      cfg.faults.link.up_delay = parse_double(value, line);
    } else if (key == "link_up_duplicate_probability") {
      cfg.faults.link.up_duplicate = parse_double(value, line);
    } else if (key == "link_down_loss_probability") {
      cfg.faults.link.down_loss = parse_double(value, line);
    } else if (key == "link_down_duplicate_probability") {
      cfg.faults.link.down_duplicate = parse_double(value, line);
    } else if (key == "power_sensor_stuck_probability") {
      cfg.faults.power_sensor.stuck_probability = parse_double(value, line);
    } else if (key == "power_sensor_bias_probability") {
      cfg.faults.power_sensor.bias_probability = parse_double(value, line);
    } else if (key == "power_sensor_dropout_probability") {
      cfg.faults.power_sensor.dropout_probability = parse_double(value, line);
    } else if (key == "power_sensor_bias_w") {
      cfg.faults.power_sensor.bias = parse_double(value, line);
    } else if (key == "temp_sensor_stuck_probability") {
      cfg.faults.temp_sensor.stuck_probability = parse_double(value, line);
    } else if (key == "temp_sensor_bias_probability") {
      cfg.faults.temp_sensor.bias_probability = parse_double(value, line);
    } else if (key == "temp_sensor_dropout_probability") {
      cfg.faults.temp_sensor.dropout_probability = parse_double(value, line);
    } else if (key == "temp_sensor_bias_c") {
      cfg.faults.temp_sensor.bias = parse_double(value, line);
    } else if (key == "sensor_fault_mean_ticks") {
      cfg.faults.sensor_fault_mean_ticks = parse_double(value, line);
    } else if (key == "crash_probability") {
      cfg.faults.crash_probability = parse_double(value, line);
    } else if (key == "crash_down_ticks") {
      cfg.faults.crash_down_ticks = parse_long(value, line);
    } else if (key == "crash_event") {
      // tick first_server last_server [down_ticks]
      const auto words = split_words(value);
      if (words.size() != 3 && words.size() != 4) {
        fail(line, "crash_event takes 'tick first last [down_ticks]'");
      }
      fault::CrashEvent ev;
      ev.tick = parse_long(words[0], line);
      ev.first_server = parse_count(words[1], line);
      ev.last_server = parse_count(words[2], line);
      if (words.size() == 4) ev.down_ticks = parse_long(words[3], line);
      cfg.faults.crash_events.push_back(ev);
    } else if (key == "ups_failure") {
      // first_tick last_tick (inclusive window of failed-open battery)
      const auto words = split_words(value);
      if (words.size() != 2) fail(line, "ups_failure takes 'first last'");
      fault::UpsFailureWindow w;
      w.first_tick = parse_long(words[0], line);
      w.last_tick = parse_long(words[1], line);
      cfg.faults.ups_failures.push_back(w);
    } else if (key == "ups") {
      // capacity_j max_discharge_w max_charge_w [initial_fraction]
      const auto words = split_words(value);
      if (words.size() != 3 && words.size() != 4) {
        fail(line, "ups takes 'capacity_j max_discharge_w max_charge_w"
                   " [initial_fraction]'");
      }
      checked(line, [&] {
        cfg.ups.emplace(util::Joules{parse_double(words[0], line)},
                        Watts{parse_double(words[1], line)},
                        Watts{parse_double(words[2], line)},
                        words.size() == 4 ? parse_double(words[3], line) : 1.0);
      });
    } else if (key == "stale_timeout_ticks") {
      cfg.controller.stale_timeout_ticks = parse_int(value, line);
    } else if (key == "stale_decay") {
      cfg.controller.stale_decay = parse_double(value, line);
    } else if (key == "directive_retry_limit") {
      cfg.controller.directive_retry_limit = parse_int(value, line);
    } else {
      fail(line, "unknown key '" + key + "'");
    }
  }

  if (hot_zone_servers > 0) {
    const auto total = cfg.datacenter.layout.total_servers();
    if (hot_zone_servers > total) {
      throw std::runtime_error("scenario: hot_zone_servers exceeds fleet size");
    }
    cfg.datacenter.ambient_overrides.assign(
        total, cfg.datacenter.server.thermal.ambient);
    for (std::size_t i = total - hot_zone_servers; i < total; ++i) {
      cfg.datacenter.ambient_overrides[i] = util::Celsius{hot_ambient_c};
    }
  }
  try {
    cfg.controller.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }
  if (const auto errors = cfg.validate(); !errors.empty()) {
    std::string msg = "scenario: invalid configuration:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::runtime_error(msg);
  }
  return cfg;
}

SimConfig load_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario file: " + path);
  return parse_scenario(f);
}

const std::vector<ScenarioKeyDoc>& scenario_keys() {
  // Samples are chosen so concatenating every `key = sample` line yields one
  // valid scenario (scenario_keys_roundtrip_test feeds exactly that to
  // parse_scenario).  Keep in lockstep with the if-chain above and with the
  // key table in docs/scenario_format.md — scripts/check_docs_drift.sh
  // cross-checks all three.
  static const std::vector<ScenarioKeyDoc> kKeys = {
      {"schema_version", "2", "optional dialect stamp (reject-if-newer)"},
      {"utilization", "0.7",
       "offered load vs the thermally sustainable envelope"},
      {"seed", "11", "RNG seed (workload build + demand draws)"},
      {"warmup_ticks", "10", "ticks ignored before recording"},
      {"measure_ticks", "120", "ticks recorded"},
      {"zones", "2", "hierarchy shape: datacenter -> zones -> racks"},
      {"racks_per_zone", "3", "racks per zone"},
      {"servers_per_rack", "3", "servers per rack"},
      {"smoothing_alpha", "0.4", "Eq. 4 EWMA weight at every PMU"},
      {"thermal_c1", "0.08", "RC heating coefficient (degC per W per period)"},
      {"thermal_c2", "0.05", "RC cooling rate (1/period)"},
      {"ambient_c", "25", "baseline ambient temperature"},
      {"thermal_limit_c", "60", "hard thermal ceiling"},
      {"nameplate_w", "450", "electrical rating per server"},
      {"hot_zone_servers", "4", "last N servers get the hot ambient"},
      {"hot_ambient_c", "40", "hot-zone ambient temperature"},
      {"margin_w", "1.5", "P_min post-migration surplus floor"},
      {"migration_cost_w", "0.5", "temporary demand per migration endpoint"},
      {"eta1", "3", "supply-adaptation period multiplier (DeltaS)"},
      {"eta2", "9", "consolidation period multiplier (DeltaA)"},
      {"consolidation_threshold", "0.5",
       "utilization below which servers drain"},
      {"packing", "ffdlr", "ffdlr | ff | ffd | bfd | wfd"},
      {"allocation", "demand", "demand | capacity proportional division"},
      {"prefer_local", "true", "local-first migration planning"},
      {"enforce_unidirectional", "true",
       "no migrations into reduced, deficient subtrees"},
      {"shedding", "degrade", "drop | degrade (degrade-then-drop)"},
      {"degraded_service_level", "0.5", "service floor under degrade"},
      {"priority_levels", "3", "shedding priority classes, assigned randomly"},
      {"demand_quantum_w", "1", "Poisson quantum (variance knob)"},
      {"ipc_chain_fraction", "0.0",
       "fraction of each server's apps wired into an IPC chain"},
      {"ipc_flow_units", "0.25", "traffic units per IPC flow"},
      {"supply", "sine 420 120 48",
       "constant W | steps w... | sine base amp period | solar floor peak "
       "day cloud seed | csv path | fig15 | fig19"},
      {"intensity", "constant 1.0",
       "constant F | diurnal base amp period [phase] | trace f..."},
      {"sla_inflation", "5", "enable the QoS tracker (M/M/1 inflation SLA)"},
      {"report_loss_probability", "0.1",
       "legacy fault knob: lost demand reports per server-tick"},
      {"churn_probability", "0.05",
       "per-server chance per tick of one app departing + one arriving"},
      {"incremental_control", "true",
       "change-driven control plane (identical trace to full recompute)"},
      {"shadow_diff", "false",
       "re-derive every incremental skip; abort on bitwise divergence"},
      {"report_deadband_w", "0.25",
       "min demand movement before a node re-reports"},
      {"threads", "1",
       "tick-engine workers (0 = hw concurrency, 1 = serial; bit-identical)"},
      {"migration_periods_per_gib", "0.5",
       "VM transfer latency (0 = instantaneous)"},
      {"rack_circuit_w", "500", "under-designed rack feed rating (every rack)"},
      {"cooling_cop", "4.0", "enable the cooling plant (records PUE)"},
      {"link_up_loss_probability", "0.05",
       "demand report lost (child retries)"},
      {"link_up_delay_probability", "0.05",
       "demand report deferred to the next sweep"},
      {"link_up_duplicate_probability", "0.02",
       "report delivered twice (idempotent; counted)"},
      {"link_down_loss_probability", "0.05",
       "budget directive lost (enters the retry queue)"},
      {"link_down_duplicate_probability", "0.02",
       "directive delivered twice"},
      {"power_sensor_stuck_probability", "0.01",
       "per-tick power-sensor stuck-at onset"},
      {"power_sensor_bias_probability", "0.01",
       "per-tick power-sensor bias onset"},
      {"power_sensor_dropout_probability", "0.01",
       "per-tick power-sensor dropout onset"},
      {"power_sensor_bias_w", "4", "offset during a power-sensor bias episode"},
      {"temp_sensor_stuck_probability", "0.01",
       "per-tick temperature-sensor stuck-at onset"},
      {"temp_sensor_bias_probability", "0.01",
       "per-tick temperature-sensor bias onset"},
      {"temp_sensor_dropout_probability", "0.01",
       "per-tick temperature-sensor dropout onset"},
      {"temp_sensor_bias_c", "3",
       "offset during a temperature-sensor bias episode"},
      {"sensor_fault_mean_ticks", "5",
       "mean episode duration: 1 + Exp(mean - 1) ticks"},
      {"crash_probability", "0.002",
       "per-server, per-tick fail-stop crash onset"},
      {"crash_down_ticks", "10", "outage length for probabilistic crashes"},
      {"crash_event", "40 0 1 8",
       "scripted outage: tick first last [down_ticks]; repeatable"},
      {"ups", "90000 220 160 0.8",
       "capacity_j max_discharge_w max_charge_w [initial_fraction]"},
      {"ups_failure", "60 80",
       "battery failed open over ticks [first, last]; repeatable"},
      {"stale_timeout_ticks", "3",
       "degraded mode: reports stale after N silent ticks (0 = off)"},
      {"stale_decay", "0.9",
       "per-tick decay of a stale leaf's synthetic demand"},
      {"directive_retry_limit", "3",
       "lost-directive retries with binary backoff before abandoning"},
  };
  return kKeys;
}

bool is_scenario_key(const std::string& key) {
  for (const auto& doc : scenario_keys()) {
    if (doc.key == key) return true;
  }
  return false;
}

}  // namespace willow::sim
