#include "sim/scenario_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
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

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

/// A scenario being read.  A setter reads `value` through one typed accessor,
/// so the key's type and range sit in its own table entry.
struct ScenarioDraft {
  SimConfig cfg;
  std::string value;  ///< right-hand side of the current line
  int line = 0;
  // The hot zone is applied once the layout is known.
  std::size_t hot_zone_servers = 0;
  int hot_zone_line = 0;
  double hot_ambient_c = 40.0;

  double real() const { return parse_double(value, line); }
  double real_in(double lo, double hi, const char* error) const {
    const double v = real();
    if (v < lo || v > hi) fail(line, error);
    return v;
  }
  long integer() const { return parse_long(value, line); }
  std::size_t count() const { return parse_count(value, line); }
  bool flag() const { return parse_bool(value, line); }
  /// An `int` field, optionally bounded below.
  int int_field(long lo = std::numeric_limits<int>::min()) const {
    return static_cast<int>(
        parse_int_in(value, line, lo, std::numeric_limits<int>::max()));
  }
  /// One of a key's named values; any other text fails with `error`.
  template <class T>
  T choice(std::initializer_list<std::pair<const char*, T>> choices,
           const std::string& error) const {
    for (const auto& [name, v] : choices) {
      if (value == name) return v;
    }
    fail(line, error);
  }
  thermal::ThermalParams& thermal() { return cfg.datacenter.server.thermal; }
};

namespace {

using Draft = ScenarioDraft;

// The key table, in the sections of docs/scenario_format.md.

constexpr ScenarioKey kRunShape[] = {
    {"schema_version", "2", "optional dialect stamp (reject-if-newer)",
     [](Draft& d) {
       const long v = d.integer();
       if (v < 1 || v > kScenarioSchemaVersion) {
         fail(d.line, "unsupported schema_version " + std::to_string(v) +
                          " (this build reads versions 1.." +
                          std::to_string(kScenarioSchemaVersion) + ")");
       }
     }},
    {"utilization", "0.7", "offered load vs the thermally sustainable envelope",
     [](Draft& d) {
       d.cfg.target_utilization =
           d.real_in(0.0, 1.5, "utilization out of range");
     }},
    {"seed", "11", "RNG seed (workload build + demand draws)",
     [](Draft& d) { d.cfg.seed = parse_seed(d.value, d.line); }},
    {"warmup_ticks", "10", "ticks ignored before recording",
     [](Draft& d) { d.cfg.warmup_ticks = d.integer(); }},
    {"measure_ticks", "120", "ticks recorded",
     [](Draft& d) { d.cfg.measure_ticks = d.integer(); }},
    {"threads", "1",
     "tick-engine workers (0 = hw concurrency, 1 = serial; bit-identical)",
     [](Draft& d) { d.cfg.threads = d.count(); }},
};

constexpr ScenarioKey kPlant[] = {
    {"zones", "2", "hierarchy shape: datacenter -> zones -> racks",
     [](Draft& d) { d.cfg.datacenter.layout.zones = d.count(); }},
    {"racks_per_zone", "3", "racks per zone",
     [](Draft& d) { d.cfg.datacenter.layout.racks_per_zone = d.count(); }},
    {"servers_per_rack", "3", "servers per rack",
     [](Draft& d) { d.cfg.datacenter.layout.servers_per_rack = d.count(); }},
    {"smoothing_alpha", "0.4", "Eq. 4 EWMA weight at every PMU",
     [](Draft& d) { d.cfg.datacenter.smoothing_alpha = d.real(); }},
    {"thermal_c1", "0.08", "RC heating coefficient (degC per W per period)",
     [](Draft& d) { d.thermal().c1 = d.real(); }},
    {"thermal_c2", "0.05", "RC cooling rate (1/period)",
     [](Draft& d) { d.thermal().c2 = d.real(); }},
    {"ambient_c", "25", "baseline ambient temperature",
     [](Draft& d) { d.thermal().ambient = util::Celsius{d.real()}; }},
    {"thermal_limit_c", "60", "hard thermal ceiling",
     [](Draft& d) { d.thermal().limit = util::Celsius{d.real()}; }},
    {"nameplate_w", "450", "electrical rating per server",
     [](Draft& d) { d.thermal().nameplate = Watts{d.real()}; }},
    {"hot_zone_servers", "4", "last N servers get the hot ambient",
     [](Draft& d) {
       d.hot_zone_servers = d.count();
       d.hot_zone_line = d.line;
     }},
    {"hot_ambient_c", "40", "hot-zone ambient temperature",
     [](Draft& d) { d.hot_ambient_c = d.real(); }},
    {"rack_circuit_w", "500", "under-designed rack feed rating (every rack)",
     [](Draft& d) { d.cfg.rack_circuit_limit = Watts{d.real()}; }},
};

using binpack::Algorithm;
using core::AllocationPolicy;
using core::SheddingPolicy;

constexpr ScenarioKey kController[] = {
    {"margin_w", "1.5", "P_min post-migration surplus floor",
     [](Draft& d) { d.cfg.controller.margin = Watts{d.real()}; }},
    {"migration_cost_w", "0.5", "temporary demand per migration endpoint",
     [](Draft& d) { d.cfg.controller.migration_cost = Watts{d.real()}; }},
    {"eta1", "3", "supply-adaptation period multiplier (DeltaS)",
     [](Draft& d) { d.cfg.controller.eta1 = d.int_field(); }},
    {"eta2", "9", "consolidation period multiplier (DeltaA)",
     [](Draft& d) { d.cfg.controller.eta2 = d.int_field(); }},
    {"consolidation_threshold", "0.5", "utilization below which servers drain",
     [](Draft& d) { d.cfg.controller.consolidation_threshold = d.real(); }},
    {"packing", "ffdlr", "ffdlr | ff | ffd | bfd | wfd",
     [](Draft& d) {
       d.cfg.controller.packing =
           d.choice<Algorithm>({{"ffdlr", Algorithm::kFfdlr},
                                {"ff", Algorithm::kFirstFit},
                                {"ffd", Algorithm::kFirstFitDecreasing},
                                {"bfd", Algorithm::kBestFitDecreasing},
                                {"wfd", Algorithm::kWorstFitDecreasing}},
                               "unknown packing algorithm '" + d.value + "'");
     }},
    {"allocation", "demand", "demand | capacity proportional division",
     [](Draft& d) {
       d.cfg.controller.allocation = d.choice<AllocationPolicy>(
           {{"demand", AllocationPolicy::kProportionalToDemand},
            {"capacity", AllocationPolicy::kProportionalToCapacity}},
           "allocation must be 'demand' or 'capacity'");
     }},
    {"prefer_local", "true", "local-first migration planning",
     [](Draft& d) { d.cfg.controller.prefer_local = d.flag(); }},
    {"enforce_unidirectional", "true",
     "no migrations into reduced, deficient subtrees",
     [](Draft& d) { d.cfg.controller.enforce_unidirectional = d.flag(); }},
    {"shedding", "degrade", "drop | degrade (degrade-then-drop)",
     [](Draft& d) {
       d.cfg.controller.shedding = d.choice<SheddingPolicy>(
           {{"drop", SheddingPolicy::kDropWhole},
            {"degrade", SheddingPolicy::kDegradeThenDrop}},
           "shedding must be 'drop' or 'degrade'");
     }},
    {"degraded_service_level", "0.5", "service floor under degrade",
     [](Draft& d) { d.cfg.controller.degraded_service_level = d.real(); }},
    {"migration_periods_per_gib", "0.5",
     "VM transfer latency (0 = instantaneous)",
     [](Draft& d) { d.cfg.controller.migration_periods_per_gib = d.real(); }},
    {"incremental_control", "true",
     "change-driven control plane (identical trace to full recompute)",
     [](Draft& d) { d.cfg.incremental_control = d.flag(); }},
    {"shadow_diff", "false",
     "re-derive every incremental skip; abort on bitwise divergence",
     [](Draft& d) { d.cfg.shadow_diff = d.flag(); }},
    {"report_deadband_w", "0.25",
     "min demand movement before a node re-reports",
     [](Draft& d) { d.cfg.controller.report_deadband = Watts{d.real()}; }},
    {"stale_timeout_ticks", "3",
     "degraded mode: reports stale after N silent ticks (0 = off)",
     [](Draft& d) { d.cfg.controller.stale_timeout_ticks = d.int_field(); }},
    {"stale_decay", "0.9", "per-tick decay of a stale leaf's synthetic demand",
     [](Draft& d) { d.cfg.controller.stale_decay = d.real(); }},
    {"directive_retry_limit", "3",
     "lost-directive retries with binary backoff before abandoning",
     [](Draft& d) { d.cfg.controller.directive_retry_limit = d.int_field(); }},
};

constexpr ScenarioKey kWorkload[] = {
    {"priority_levels", "3", "shedding priority classes, assigned randomly",
     [](Draft& d) { d.cfg.mix.priority_levels = d.int_field(0); }},
    {"demand_quantum_w", "1", "Poisson quantum (variance knob)",
     [](Draft& d) { d.cfg.demand_quantum = Watts{d.real()}; }},
    {"ipc_chain_fraction", "0.0",
     "fraction of each server's apps wired into an IPC chain",
     [](Draft& d) { d.cfg.ipc_chain_fraction = d.real(); }},
    {"ipc_flow_units", "0.25", "traffic units per IPC flow",
     [](Draft& d) { d.cfg.ipc_flow_units = d.real(); }},
    {"intensity", "constant 1.0",
     "constant F | diurnal base amp period [phase] | trace f...",
     [](Draft& d) {
       d.cfg.intensity =
           checked(d.line, [&] { return parse_intensity(d.value, d.line); });
     }},
    {"churn_probability", "0.05",
     "per-server chance per tick of one app departing + one arriving",
     [](Draft& d) {
       d.cfg.churn_probability =
           d.real_in(0.0, 1.0, "churn_probability must be in [0,1]");
     }},
};

constexpr ScenarioKey kEnvironment[] = {
    {"supply", "sine 420 120 48",
     "constant W | steps w... | sine base amp period | solar floor peak "
     "day cloud seed | csv path | fig15 | fig19",
     [](Draft& d) {
       d.cfg.supply =
           checked(d.line, [&] { return parse_supply(d.value, d.line); });
     }},
    {"ups", "90000 220 160 0.8",
     "capacity_j max_discharge_w max_charge_w [initial_fraction]",
     [](Draft& d) {
       const auto words = split_words(d.value);
       if (words.size() != 3 && words.size() != 4) {
         fail(d.line, "ups takes 'capacity_j max_discharge_w max_charge_w"
                      " [initial_fraction]'");
       }
       checked(d.line, [&] {
         d.cfg.ups.emplace(
             util::Joules{parse_double(words[0], d.line)},
             Watts{parse_double(words[1], d.line)},
             Watts{parse_double(words[2], d.line)},
             words.size() == 4 ? parse_double(words[3], d.line) : 1.0);
       });
     }},
    {"cooling_cop", "4.0", "enable the cooling plant (records PUE)",
     [](Draft& d) {
       power::CoolingConfig cool;
       cool.cop_at_reference = d.real();
       d.cfg.cooling =
           checked(d.line, [&] { return power::CoolingModel(cool); });
     }},
    {"sla_inflation", "5", "enable the QoS tracker (M/M/1 inflation SLA)",
     [](Draft& d) { d.cfg.sla_inflation = d.real(); }},
    {"report_loss_probability", "0.1",
     "legacy fault knob: lost demand reports per server-tick",
     [](Draft& d) {
       d.cfg.report_loss_probability =
           d.real_in(0.0, 1.0, "report_loss_probability must be in [0,1]");
     }},
};

constexpr ScenarioKey kFaults[] = {
    {"link_up_loss_probability", "0.05", "demand report lost (child retries)",
     [](Draft& d) { d.cfg.faults.link.up_loss = d.real(); }},
    {"link_up_delay_probability", "0.05",
     "demand report deferred to the next sweep",
     [](Draft& d) { d.cfg.faults.link.up_delay = d.real(); }},
    {"link_up_duplicate_probability", "0.02",
     "report delivered twice (idempotent; counted)",
     [](Draft& d) { d.cfg.faults.link.up_duplicate = d.real(); }},
    {"link_down_loss_probability", "0.05",
     "budget directive lost (enters the retry queue)",
     [](Draft& d) { d.cfg.faults.link.down_loss = d.real(); }},
    {"link_down_duplicate_probability", "0.02", "directive delivered twice",
     [](Draft& d) { d.cfg.faults.link.down_duplicate = d.real(); }},
    {"power_sensor_stuck_probability", "0.01",
     "per-tick power-sensor stuck-at onset",
     [](Draft& d) { d.cfg.faults.power_sensor.stuck_probability = d.real(); }},
    {"power_sensor_bias_probability", "0.01",
     "per-tick power-sensor bias onset",
     [](Draft& d) { d.cfg.faults.power_sensor.bias_probability = d.real(); }},
    {"power_sensor_dropout_probability", "0.01",
     "per-tick power-sensor dropout onset",
     [](Draft& d) {
       d.cfg.faults.power_sensor.dropout_probability = d.real();
     }},
    {"power_sensor_bias_w", "4", "offset during a power-sensor bias episode",
     [](Draft& d) { d.cfg.faults.power_sensor.bias = d.real(); }},
    {"temp_sensor_stuck_probability", "0.01",
     "per-tick temperature-sensor stuck-at onset",
     [](Draft& d) { d.cfg.faults.temp_sensor.stuck_probability = d.real(); }},
    {"temp_sensor_bias_probability", "0.01",
     "per-tick temperature-sensor bias onset",
     [](Draft& d) { d.cfg.faults.temp_sensor.bias_probability = d.real(); }},
    {"temp_sensor_dropout_probability", "0.01",
     "per-tick temperature-sensor dropout onset",
     [](Draft& d) { d.cfg.faults.temp_sensor.dropout_probability = d.real(); }},
    {"temp_sensor_bias_c", "3",
     "offset during a temperature-sensor bias episode",
     [](Draft& d) { d.cfg.faults.temp_sensor.bias = d.real(); }},
    {"sensor_fault_mean_ticks", "5",
     "mean episode duration: 1 + Exp(mean - 1) ticks",
     [](Draft& d) { d.cfg.faults.sensor_fault_mean_ticks = d.real(); }},
    {"crash_probability", "0.002", "per-server, per-tick fail-stop crash onset",
     [](Draft& d) { d.cfg.faults.crash_probability = d.real(); }},
    {"crash_down_ticks", "10", "outage length for probabilistic crashes",
     [](Draft& d) { d.cfg.faults.crash_down_ticks = d.integer(); }},
    {"crash_event", "40 0 1 8",
     "scripted outage: tick first last [down_ticks]; repeatable",
     [](Draft& d) {
       const auto words = split_words(d.value);
       if (words.size() != 3 && words.size() != 4) {
         fail(d.line, "crash_event takes 'tick first last [down_ticks]'");
       }
       fault::CrashEvent ev;
       ev.tick = parse_long(words[0], d.line);
       ev.first_server = parse_count(words[1], d.line);
       ev.last_server = parse_count(words[2], d.line);
       if (words.size() == 4) ev.down_ticks = parse_long(words[3], d.line);
       d.cfg.faults.crash_events.push_back(ev);
     }},
    {"ups_failure", "60 80",
     "battery failed open over ticks [first, last]; repeatable",
     [](Draft& d) {
       const auto words = split_words(d.value);
       if (words.size() != 2) fail(d.line, "ups_failure takes 'first last'");
       fault::UpsFailureWindow w;
       w.first_tick = parse_long(words[0], d.line);
       w.last_tick = parse_long(words[1], d.line);
       d.cfg.faults.ups_failures.push_back(w);
     }},
};

const ScenarioKey* find_key(const std::string& key) {
  const auto& keys = scenario_keys();
  const auto it = std::ranges::find(keys, key, &ScenarioKey::key);
  return it == keys.end() ? nullptr : &*it;
}

}  // namespace

const std::vector<ScenarioKey>& scenario_keys() {
  static const std::vector<ScenarioKey> kKeys = [] {
    const std::span<const ScenarioKey> sections[] = {
        kRunShape, kPlant, kController, kWorkload, kEnvironment, kFaults};
    std::vector<ScenarioKey> keys;
    for (const auto section : sections) {
      keys.insert(keys.end(), section.begin(), section.end());
    }
    return keys;
  }();
  return kKeys;
}

bool is_scenario_key(const std::string& key) {
  return find_key(key) != nullptr;
}

SimConfig parse_scenario(std::istream& in) {
  ScenarioDraft d;
  std::string raw;
  while (std::getline(in, raw)) {
    ++d.line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string text = trim(raw);
    if (text.empty()) continue;
    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(d.line, "expected 'key = value'");
    const std::string key = trim(text.substr(0, eq));
    d.value = trim(text.substr(eq + 1));
    if (key.empty() || d.value.empty()) fail(d.line, "empty key or value");
    const ScenarioKey* entry = find_key(key);
    if (entry == nullptr) fail(d.line, "unknown key '" + key + "'");
    entry->set(d);
  }
  if (d.hot_zone_servers > 0) {
    // Check the layout before sizing a per-server vector by it.
    if (!d.cfg.datacenter.layout.fits_node_ids()) {
      fail(d.hot_zone_line,
           "hot_zone_servers: the layout has too many nodes to build");
    }
    const auto total = d.cfg.datacenter.layout.total_servers();
    if (d.hot_zone_servers > total) {
      fail(d.hot_zone_line, "hot_zone_servers exceeds fleet size");
    }
    d.cfg.datacenter.ambient_overrides.assign(total, d.thermal().ambient);
    for (std::size_t i = total - d.hot_zone_servers; i < total; ++i) {
      d.cfg.datacenter.ambient_overrides[i] = util::Celsius{d.hot_ambient_c};
    }
  }
  try {
    d.cfg.controller.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }
  if (const auto errors = d.cfg.validate(); !errors.empty()) {
    std::string msg = "scenario: invalid configuration:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::runtime_error(msg);
  }
  return std::move(d.cfg);
}

SimConfig load_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario file: " + path);
  return parse_scenario(f);
}

}  // namespace willow::sim
