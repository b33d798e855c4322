#include "tickbench.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "power/supply.h"
#include "power/ups.h"

namespace willow::tickbench {
namespace {

using util::Seconds;
using util::Watts;

// The paper's simulation plant (Sec. V-B2 constants), pinned here so that a
// change of library defaults cannot silently change a workload.
sim::SimConfig paper_plant(std::uint64_t seed, sim::DatacenterLayout layout,
                           double utilization) {
  sim::SimConfig cfg;
  auto& thermal = cfg.datacenter.server.thermal;
  thermal.c1 = 0.08;
  thermal.c2 = 0.05;
  thermal.ambient = util::Celsius{25.0};
  thermal.limit = util::Celsius{70.0};
  thermal.nameplate = Watts{450.0};
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();
  cfg.datacenter.layout = layout;
  cfg.target_utilization = utilization;
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

// Mean fleet demand the workload mix is sized for: per server, the idle
// floor plus the target share of the thermally sustainable dynamic power.
double nominal_fleet_demand_w(const sim::SimConfig& cfg) {
  const auto& thermal = cfg.datacenter.server.thermal;
  const double idle =
      cfg.datacenter.server.power_model.static_power().value();
  const double dynamic = thermal.c2 *
                             (thermal.limit.value() - thermal.ambient.value()) /
                             thermal.c1 -
                         idle;
  return static_cast<double>(cfg.datacenter.layout.total_servers()) *
         (idle + cfg.target_utilization * dynamic);
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Warm-up lengths: churn and faults reach their steady mix within a few
  // consolidation periods; the settled fleet needs the thermal plant at its
  // bitwise fixed point (~650-720 ticks at the paper's cooling rate).
  static const std::vector<Workload> kAll{
      {"churn_10k", /*warmup_ticks=*/40, /*measured_ticks=*/1000, true},
      {"settled_10k", /*warmup_ticks=*/720, /*measured_ticks=*/1000, true},
      {"deficit_faults_2k", /*warmup_ticks=*/100, /*measured_ticks=*/1000,
       false},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

sim::SimConfig make_config(const Workload& w, std::uint64_t seed) {
  sim::SimConfig cfg;
  if (w.name == "churn_10k") {
    cfg = paper_plant(seed, {10, 25, 40}, 0.5);
    cfg.demand_quantum = Watts{1.0};
    cfg.churn_probability = 0.02;
  } else if (w.name == "settled_10k") {
    cfg = paper_plant(seed, {10, 25, 40}, 0.5);
    cfg.demand_quantum = Watts{0.0};
  } else if (w.name == "deficit_faults_2k") {
    cfg = paper_plant(seed, {2, 25, 40}, 0.7);
    cfg.demand_quantum = Watts{1.0};
    cfg.churn_probability = 0.01;
    // Supply swings +-12% around the nominal fleet demand every 60 ticks, so
    // budgets bind for half of each cycle; the UPS covers only part of a dip.
    // Temperature sensors only drop out (a stuck one would let servers
    // overheat unseen, making max_temp_c a lottery over seeds).
    const double fleet = nominal_fleet_demand_w(cfg);
    cfg.supply = std::make_shared<power::SinusoidSupply>(
        Watts{fleet}, Watts{0.12 * fleet}, Seconds{60.0});
    cfg.ups.emplace(util::Joules{0.4 * fleet}, Watts{0.05 * fleet},
                    Watts{0.02 * fleet});
    auto& faults = cfg.faults;
    faults.link.up_loss = 0.02;
    faults.link.down_loss = 0.02;
    faults.power_sensor.stuck_probability = 2e-4;
    faults.power_sensor.dropout_probability = 5e-4;
    faults.temp_sensor.dropout_probability = 2e-4;
    faults.crash_probability = 2e-5;
    faults.crash_down_ticks = 10;
    cfg.controller.stale_timeout_ticks = 3;
  } else {
    throw std::invalid_argument("unknown workload: " + w.name);
  }
  cfg.warmup_ticks = w.warmup_ticks;
  cfg.measure_ticks = w.measured_ticks + 1;
  return cfg;
}

AppCensus count_apps(const sim::Datacenter& dc) {
  AppCensus c;
  for (std::size_t i = 0; i < dc.cluster.server_count(); ++i) {
    for (const auto& app : dc.cluster.server_at(i).apps()) {
      ++(app.dropped() ? c.dropped : c.hosted);
    }
  }
  return c;
}

Signature signature(const sim::SimResult& r, AppCensus initial,
                    AppCensus final_census) {
  Signature s;
  const auto num = [&](const std::string& k, double v) {
    s.emplace_back(k, exact(v));
  };
  const auto count = [&](const std::string& k, std::uint64_t v) {
    s.emplace_back(k, std::to_string(v));
  };
  const auto series = [&](const std::string& k, const util::TimeSeries& ts) {
    count(k + ".n", ts.size());
    num(k + ".sum", ts.stats().sum());
    num(k + ".mean", ts.stats().mean());
    num(k + ".max", ts.empty() ? 0.0 : ts.stats().max());
  };
  count("ticks", static_cast<std::uint64_t>(r.ticks));
  series("total_power", r.total_power);
  series("supply", r.supply_series);
  series("intensity", r.intensity_series);
  series("migrations", r.migrations_per_tick);
  series("demand_migrations", r.demand_migrations_per_tick);
  series("consolidation_migrations", r.consolidation_migrations_per_tick);
  series("migration_traffic", r.normalized_migration_traffic);
  series("remote_flow_traffic", r.remote_flow_traffic);
  series("mean_flow_hops", r.mean_flow_hops);
  series("imbalance", r.imbalance);
  series("facility_power", r.facility_power);
  series("qos_satisfaction", r.qos_satisfaction);
  num("max_temperature_c", r.max_temperature_c);
  count("thermal_violation", r.thermal_violation ? 1 : 0);
  count("quick_remigrations", r.quick_remigrations);
  count("churn_arrivals", r.churn_arrivals);
  count("churn_departures", r.churn_departures);

  const auto& cs = r.controller_stats;
  count("stats.demand_migrations", cs.demand_migrations);
  count("stats.consolidation_migrations", cs.consolidation_migrations);
  count("stats.local_migrations", cs.local_migrations);
  count("stats.nonlocal_migrations", cs.nonlocal_migrations);
  count("stats.drops", cs.drops);
  count("stats.revivals", cs.revivals);
  count("stats.degrades", cs.degrades);
  count("stats.restores", cs.restores);
  count("stats.sleeps", cs.sleeps);
  count("stats.wakes", cs.wakes);
  num("stats.dropped_demand_w", cs.dropped_demand.value());
  num("stats.degraded_demand_w", cs.degraded_demand.value());

  // Per-server and per-switch statistics, folded in fixed order.
  double power = 0, temp = 0, util = 0, asleep = 0, saved = 0;
  std::uint64_t samples = 0;
  for (const auto& m : r.servers) {
    power += m.consumed_power.sum();
    temp += m.temperature.sum();
    util += m.utilization.sum();
    asleep += m.asleep_fraction;
    saved += m.saved_power_w;
    samples += m.consumed_power.count();
  }
  count("servers", r.servers.size());
  count("servers.samples", samples);
  num("servers.power", power);
  num("servers.temperature", temp);
  num("servers.utilization", util);
  num("servers.asleep_fraction", asleep);
  num("servers.saved_power_w", saved);
  double sw_power = 0, sw_traffic = 0, sw_cost = 0;
  for (const auto& m : r.level1_switches) {
    sw_power += m.power.sum();
    sw_traffic += m.traffic.sum();
    sw_cost += m.migration_cost.sum();
  }
  num("switches.power", sw_power);
  num("switches.traffic", sw_traffic);
  num("switches.migration_cost", sw_cost);

  for (const auto& c : r.metrics.counters) count("counter:" + c.name, c.value);
  for (const auto& g : r.metrics.gauges) num("gauge:" + g.name, g.value);
  for (const auto& h : r.metrics.histograms) {
    count("histogram:" + h.name + ".count", h.count);
    num("histogram:" + h.name + ".sum", h.sum);
    for (std::size_t i = 0; i < h.cumulative_counts.size(); ++i) {
      count("histogram:" + h.name + ".le" + std::to_string(i),
            h.cumulative_counts[i]);
    }
  }

  count("apps.initial_hosted", initial.hosted);
  count("apps.initial_dropped", initial.dropped);
  count("apps.final_hosted", final_census.hosted);
  count("apps.final_dropped", final_census.dropped);
  return s;
}

std::string diff(const Signature& want, const Signature& got) {
  std::map<std::string, std::string> w(want.begin(), want.end());
  std::map<std::string, std::string> g(got.begin(), got.end());
  std::string out;
  int shown = 0;
  const auto line = [&](const std::string& text) {
    if (shown++ < 8) out += "  " + text + "\n";
  };
  for (const auto& [k, v] : w) {
    const auto it = g.find(k);
    if (it == g.end()) {
      line(k + ": missing (want " + v + ")");
    } else if (it->second != v) {
      line(k + ": want " + v + " got " + it->second);
    }
  }
  for (const auto& [k, v] : g) {
    if (!w.contains(k)) line(k + ": unexpected " + v);
  }
  if (shown > 8) out += "  (" + std::to_string(shown - 8) + " more)\n";
  return out;
}

Counters counters(const obs::MetricsSnapshot& m,
                  const core::ControllerStats& s) {
  Counters c;
  for (const auto& v : m.counters) c[v.name] = static_cast<double>(v.value);
  for (const auto& h : m.histograms) {
    c[h.name + ".count"] = static_cast<double>(h.count);
    c[h.name + ".sum"] = h.sum;
  }
  c["controller.demand_migrations"] = static_cast<double>(s.demand_migrations);
  c["controller.consolidation_migrations"] =
      static_cast<double>(s.consolidation_migrations);
  c["controller.local_migrations"] = static_cast<double>(s.local_migrations);
  c["controller.nonlocal_migrations"] =
      static_cast<double>(s.nonlocal_migrations);
  c["controller.wakes"] = static_cast<double>(s.wakes);
  c["controller.sleeps"] = static_cast<double>(s.sleeps);
  c["controller.drops"] = static_cast<double>(s.drops);
  c["controller.degrades"] = static_cast<double>(s.degrades);
  c["controller.revivals"] = static_cast<double>(s.revivals);
  c["controller.restores"] = static_cast<double>(s.restores);
  return c;
}

Counters delta(const Counters& end, const Counters& start) {
  Counters d;
  for (const auto& [k, v] : end) d[k] = v - get(start, k);
  return d;
}

double get(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

}  // namespace willow::tickbench
