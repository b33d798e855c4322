#include "driver.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/balance.h"
#include "sim/datacenter.h"
#include "workload/mix.h"

namespace willow::tickbench {
namespace {

using util::Seconds;
using util::Watts;

// Scenario features Simulation::run supports that this driver leaves out.
// A workload that needs one must first be mirrored here.
void require_mirrored(const sim::SimConfig& cfg) {
  std::string missing;
  const auto need = [&](bool ok, const char* what) {
    if (!ok) missing += std::string(" ") + what;
  };
  need(cfg.threads == 1, "threads!=1");
  need(cfg.sinks.empty(), "sinks");
  need(cfg.ambient_events.empty(), "ambient_events");
  need(!(cfg.sla_inflation > 1.0), "sla_inflation");
  need(!cfg.cooling.has_value(), "cooling");
  need(!cfg.rack_circuit_limit.has_value(), "rack_circuit_limit");
  need(cfg.ipc_chain_fraction == 0.0, "ipc_chain_fraction");
  need(cfg.report_loss_probability == 0.0, "report_loss_probability");
  if (!missing.empty()) {
    throw std::invalid_argument("traced driver does not mirror:" + missing);
  }
  const auto errors = cfg.validate();
  if (!errors.empty()) {
    throw std::invalid_argument("invalid scenario: " + errors.front());
  }
}

// Appends a span when it closes.  With a null sink it still reads the clock,
// so warm-up ticks pay what recorded ticks pay.
class SpanScope {
 public:
  SpanScope(std::vector<Span>* sink, long tick, int layer)
      : sink_(sink), tick_(tick), layer_(layer), start_(now_ns()) {}
  ~SpanScope() {
    const std::int64_t end = now_ns();
    if (sink_ != nullptr) sink_->push_back({tick_, layer_, start_, end});
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<Span>* sink_;
  long tick_;
  int layer_;
  std::int64_t start_;
};

}  // namespace

TracedRun run_traced(sim::SimConfig cfg) {
  require_mirrored(cfg);
  TracedRun out;

  // ---- Simulation::build ---------------------------------------------------
  obs::EventBus bus;
  const auto dc = sim::build_datacenter(cfg.datacenter);
  auto& cluster = dc->cluster;
  auto& tree = cluster.tree();
  cluster.set_event_bus(&bus);
  if (cfg.ups) cfg.ups->set_event_bus(&bus);

  const auto& thermal = cfg.datacenter.server.thermal;
  const auto& model = cfg.datacenter.server.power_model;
  const double sustainable_total =
      thermal.c2 * (thermal.limit.value() - thermal.ambient.value()) /
      thermal.c1;
  const double sustainable =
      std::max(1e-9, sustainable_total - model.static_power().value());

  workload::MixConfig mix = cfg.mix;
  mix.target_mean_per_server = Watts{sustainable * cfg.target_utilization};
  util::Rng rng(cfg.seed);
  workload::AppIdAllocator ids;
  auto mixes =
      workload::build_datacenter_mix(mix, dc->servers.size(), ids, rng);
  for (std::size_t i = 0; i < dc->servers.size(); ++i) {
    for (auto& app : mixes[i]) cluster.place(std::move(app), dc->servers[i]);
  }

  net::Fabric fabric(tree, cfg.fabric);
  std::unique_ptr<fault::LinkFaultModel> link_faults;
  std::unique_ptr<fault::FaultPlane> fault_plane;
  cfg.controller.incremental = cfg.incremental_control;
  cfg.controller.shadow_diff = cfg.shadow_diff;
  core::Controller controller(cluster, cfg.controller);
  controller.set_event_bus(&bus);
  if (cfg.faults.link.any()) {
    link_faults =
        std::make_unique<fault::LinkFaultModel>(cfg.faults.link, cfg.seed);
    controller.set_link_faults(link_faults.get());
  }
  if (cfg.faults.server_faults_enabled()) {
    fault_plane = std::make_unique<fault::FaultPlane>(cfg.faults, cfg.seed,
                                                      dc->servers.size());
  }
  controller.set_thread_pool(nullptr);
  controller.set_migration_sink([&](const core::MigrationRecord& rec) {
    const auto* app = cluster.find_app(rec.app);
    const double payload = app ? app->image_size().value() / 1024.0 : 1.0;
    fabric.add_migration(rec.from, rec.to, payload);
  });
  out.initial = count_apps(*dc);

  // ---- Simulation::run -----------------------------------------------------
  const auto norm_util = [&](const core::ManagedServer& srv, Watts budget) {
    if (srv.asleep()) return 0.0;
    const double dynamic =
        (srv.consumed_power(budget) - srv.idle_floor()).value();
    return std::clamp(dynamic / sustainable, 0.0, 2.0);
  };
  Watts plenty{0.0};
  for (hier::NodeId s : dc->servers) {
    plenty += cluster.server(s).thermal().params().nameplate;
  }
  std::optional<workload::PoissonDemand> demand;
  if (cfg.demand_quantum.value() > 0.0) demand.emplace(cfg.demand_quantum);
  const Seconds dt = cfg.controller.demand_period;

  sim::SimResult& result = out.result;
  result.server_nodes = dc->servers;
  result.servers.resize(dc->servers.size());
  const auto l1_groups = fabric.level1_groups();
  result.level1_switches.resize(l1_groups.size());
  for (std::size_t i = 0; i < l1_groups.size(); ++i) {
    result.level1_switches[i].group = l1_groups[i];
  }

  const long total_ticks = cfg.warmup_ticks + cfg.measure_ticks;
  std::uint64_t prev_dm = 0, prev_cm = 0;
  std::unordered_map<workload::AppId, long> last_move;
  const std::size_t n_servers = dc->servers.size();
  struct ChurnDecision {
    bool churn = false;
    bool has_departure = false;
    workload::AppId departure = 0;
    std::size_t cls = 0;
    int priority = 0;
  };
  std::vector<ChurnDecision> churn_plan;
  std::vector<double> traffic_units(n_servers, -1.0);
  std::vector<double> temps(n_servers, 0.0);

  auto& metrics = bus.metrics();
  obs::Histogram& h_migrations =
      metrics.histogram("sim.migrations_per_tick", {0, 1, 2, 4, 8, 16, 32});
  obs::Counter& c_ticks = metrics.counter("sim.ticks");
  obs::Counter* c_crashes =
      fault_plane ? &metrics.counter("fault.crashes") : nullptr;
  obs::Counter* c_restarts =
      fault_plane ? &metrics.counter("fault.restarts") : nullptr;
  obs::Counter* c_sensor_faults =
      fault_plane ? &metrics.counter("fault.sensor_faults") : nullptr;
  obs::Counter* c_sensor_recoveries =
      fault_plane ? &metrics.counter("fault.sensor_recoveries") : nullptr;

  // The bus has no sinks (require_mirrored), so Simulation's event emission
  // in these callbacks is disabled there too and is left out here.
  fault::FaultPlane::Callbacks fault_cb;
  if (fault_plane) {
    fault_cb.skip_crash = [&](std::size_t i) {
      return cluster.server_at(i).asleep();
    };
    fault_cb.crash = [&](std::size_t i, long) {
      const hier::NodeId s = dc->servers[i];
      cluster.crash_server(s);
      controller.note_availability_change(s);
      c_crashes->increment();
    };
    fault_cb.restart = [&](std::size_t i) {
      const hier::NodeId s = dc->servers[i];
      cluster.restore_server(s);
      controller.note_availability_change(s);
      c_restarts->increment();
    };
    fault_cb.sensor = [&](std::size_t i, const fault::SensorOverride& o,
                          bool temp_sensor) {
      auto& srv = cluster.server_at(i);
      fault::SensorOverride applied = o;
      if (applied.mode == fault::SensorMode::kStuck && applied.param == 0.0) {
        applied.param = temp_sensor ? srv.thermal().temperature().value()
                                    : srv.power_demand().value();
      }
      if (temp_sensor) {
        srv.set_temp_sensor(applied);
      } else {
        srv.set_power_sensor(applied);
      }
      controller.note_external_change(dc->servers[i]);
      if (applied.healthy()) {
        c_sensor_recoveries->increment();
      } else {
        c_sensor_faults->increment();
      }
    };
  }

  // Every recorded tick closes at most one span per layer, plus fault.apply
  // twice (sample, apply) and the tick span: no reallocation mid-run.
  out.spans.reserve(static_cast<std::size_t>(cfg.measure_ticks) *
                    (kLayerCount + 2));
  Counters window_start;

  for (long tick = 0; tick < total_ticks; ++tick) {
    const bool recording = tick >= cfg.warmup_ticks;
    if (tick == cfg.warmup_ticks) {
      window_start = counters(metrics.snapshot(), controller.stats());
    }
    std::vector<Span>* sink = recording ? &out.spans : nullptr;
    const std::int64_t tick_start = now_ns();

    const double t = static_cast<double>(tick) * dt.value();
    bus.set_tick(tick);
    c_ticks.increment();
    if (link_faults) link_faults->set_tick(tick);

    // Simulation fuses churn and fault draws into one batch; serially that
    // is the churn loop over all servers, then the fault draws over all
    // servers, which is what runs here.
    const bool churn_active = cfg.churn_probability > 0.0;
    const bool fault_sampling =
        fault_plane != nullptr && fault_plane->needs_sampling();
    const auto& catalog = workload::simulation_catalog();
    if (churn_active) {
      const SpanScope span(sink, tick, kSample);
      churn_plan.assign(n_servers, {});
      for (std::size_t i = 0; i < n_servers; ++i) {
        const auto& srv = cluster.server_at(i);
        if (srv.asleep() || srv.crashed() || srv.apps().empty()) continue;
        auto draw = util::tick_stream(cfg.seed, tick, i,
                                      util::stream_phase::kChurn);
        if (!draw.chance(cfg.churn_probability)) continue;
        auto& d = churn_plan[i];
        d.churn = true;
        std::vector<workload::AppId> removable;
        for (const auto& a : srv.apps()) {
          if (!controller.app_in_flight(a.id())) removable.push_back(a.id());
        }
        if (!removable.empty()) {
          d.has_departure = true;
          d.departure = removable[draw.index(removable.size())];
        }
        d.cls = draw.index(catalog.size());
        if (cfg.mix.priority_levels > 1) {
          d.priority = draw.uniform_int(0, cfg.mix.priority_levels - 1);
        }
      }
    }
    if (fault_sampling) {
      const SpanScope span(sink, tick, kFaultApply);
      fault_plane->begin_tick();
      fault_plane->sample_range(tick, 0, n_servers, fault_cb);
    }
    if (churn_active) {
      const SpanScope span(sink, tick, kChurnApply);
      for (std::size_t i = 0; i < n_servers; ++i) {
        const auto& d = churn_plan[i];
        if (!d.churn) continue;
        if (d.has_departure) {
          cluster.remove_app(d.departure);
          last_move.erase(d.departure);
          ++result.churn_departures;
        }
        const Watts mean = cfg.mix.unit_power * catalog[d.cls].relative_power;
        workload::Application fresh(
            ids.next(), d.cls, mean,
            util::Megabytes{cfg.mix.image_per_unit.value() *
                            catalog[d.cls].relative_power});
        if (cfg.mix.priority_levels > 1) fresh.set_priority(d.priority);
        cluster.place(std::move(fresh), dc->servers[i]);
        ++result.churn_arrivals;
        controller.note_external_change(dc->servers[i]);
      }
    }
    if (fault_plane) {
      const SpanScope span(sink, tick, kFaultApply);
      fault_plane->apply(tick, fault_cb);
    }

    const double intensity = cfg.intensity ? cfg.intensity->at(Seconds{t})
                                           : 1.0;
    {
      const SpanScope span(sink, tick, kDemand);
      const core::Cluster::PerServerHook per_server = [&](std::size_t i) {
        const auto& srv = cluster.server_at(i);
        traffic_units[i] =
            srv.asleep() || srv.crashed()
                ? -1.0
                : norm_util(srv, tree.node(srv.node()).budget());
      };
      if (demand) {
        cluster.refresh_demands(*demand, cfg.seed, tick, intensity, nullptr,
                                &per_server);
      } else {
        cluster.refresh_demands_deterministic(intensity, nullptr, &per_server);
      }
    }

    Watts supply{0.0};
    {
      const SpanScope span(sink, tick, kUps);
      supply = cfg.supply ? cfg.supply->at(Seconds{t}) : plenty;
      if (cfg.ups && !cfg.faults.ups_failures.empty()) {
        bool failed = false;
        for (const auto& w : cfg.faults.ups_failures) {
          if (tick >= w.first_tick && tick <= w.last_tick) {
            failed = true;
            break;
          }
        }
        cfg.ups->set_failed(failed);
      }
      if (cfg.ups) {
        const Watts want = tree.node(tree.root()).smoothed_demand();
        supply = cfg.ups->step(supply, util::max(want, supply), dt);
      }
    }

    {
      const SpanScope span(sink, tick, kFabric);
      fabric.begin_period();
      for (std::size_t i = 0; i < n_servers; ++i) {
        if (traffic_units[i] >= 0.0) {
          fabric.add_server_traffic(dc->servers[i], traffic_units[i]);
        }
      }
    }

    {
      const SpanScope span(sink, tick, kController);
      controller.tick(supply);
    }

    {
      const SpanScope span(sink, tick, kThermal);
      if (recording) {
        const core::Cluster::PerServerHook record_server = [&](std::size_t i) {
          const hier::NodeId s = dc->servers[i];
          const auto& srv = cluster.server_at(i);
          auto& m = result.servers[i];
          const Watts budget = tree.node(s).budget();
          m.consumed_power.add(srv.consumed_power(budget).value());
          m.temperature.add(srv.thermal().temperature().value());
          m.utilization.add(norm_util(srv, budget));
          if (srv.asleep()) {
            m.asleep_fraction += 1.0;
            m.saved_power_w += model.static_power().value() +
                               sustainable * cfg.target_utilization;
          }
          temps[i] = srv.thermal().temperature().value();
        };
        cluster.step_thermal(dt, nullptr, &record_server);
      } else {
        cluster.step_thermal(dt, nullptr);
      }
    }

    {
      const SpanScope span(sink, tick, kRecord);
      for (const auto& rec : controller.migrations_this_tick()) {
        auto it = last_move.find(rec.app);
        if (it != last_move.end() && controller.tick_count() - it->second < 3) {
          ++result.quick_remigrations;
        }
        last_move[rec.app] = controller.tick_count();
      }

      if (recording) {
        const auto& st = controller.stats();
        const auto dm = st.demand_migrations - prev_dm;
        const auto cm = st.consolidation_migrations - prev_cm;
        prev_dm = st.demand_migrations;
        prev_cm = st.consolidation_migrations;
        result.migrations_per_tick.record(t, static_cast<double>(dm + cm));
        h_migrations.observe(static_cast<double>(dm + cm));
        result.demand_migrations_per_tick.record(t, static_cast<double>(dm));
        result.consolidation_migrations_per_tick.record(
            t, static_cast<double>(cm));
        result.normalized_migration_traffic.record(
            t, fabric.normalized_migration_traffic());
        // No IPC flows are wired (require_mirrored): nothing crosses the
        // fabric between tiers.
        result.remote_flow_traffic.record(t, 0.0);
        result.mean_flow_hops.record(t, 0.0);
        result.imbalance.record(t,
                                core::level_balance(tree, 0).imbalance.value());
        const Watts it_power = cluster.total_consumed();
        result.total_power.record(t, it_power.value());
        result.supply_series.record(t, supply.value());
        result.intensity_series.record(t, intensity);
        for (std::size_t i = 0; i < n_servers; ++i) {
          result.max_temperature_c =
              std::max(result.max_temperature_c, temps[i]);
          if (temps[i] >
              cluster.server_at(i).thermal().params().limit.value() + 0.5) {
            result.thermal_violation = true;
          }
        }
        for (std::size_t i = 0; i < l1_groups.size(); ++i) {
          auto& m = result.level1_switches[i];
          m.power.add(fabric.switch_power(l1_groups[i]).value());
          const auto& gs = fabric.stats(l1_groups[i]);
          m.traffic.add(gs.period_traffic);
          m.migration_cost.add(gs.period_migration_cost.value());
        }
        ++result.ticks;
      }
    }
    if (sink != nullptr) {
      sink->push_back({tick, kTickSpan, tick_start, now_ns()});
    }
  }
  out.window =
      delta(counters(metrics.snapshot(), controller.stats()), window_start);

  if (result.ticks > 0) {
    for (auto& m : result.servers) {
      m.asleep_fraction /= static_cast<double>(result.ticks);
      m.saved_power_w /= static_cast<double>(result.ticks);
    }
  }
  result.controller_stats = controller.stats();
  const auto& cs = result.controller_stats;
  metrics.counter("controller.demand_migrations")
      .increment(cs.demand_migrations);
  metrics.counter("controller.consolidation_migrations")
      .increment(cs.consolidation_migrations);
  metrics.counter("controller.local_migrations").increment(cs.local_migrations);
  metrics.counter("controller.nonlocal_migrations")
      .increment(cs.nonlocal_migrations);
  metrics.counter("controller.wakes").increment(cs.wakes);
  metrics.counter("controller.sleeps").increment(cs.sleeps);
  metrics.counter("controller.drops").increment(cs.drops);
  metrics.counter("controller.degrades").increment(cs.degrades);
  metrics.counter("controller.revivals").increment(cs.revivals);
  metrics.counter("controller.restores").increment(cs.restores);
  metrics.gauge("controller.degraded_demand_w").set(cs.degraded_demand.value());
  metrics.gauge("controller.dropped_demand_w").set(cs.dropped_demand.value());
  bus.flush();
  result.metrics = metrics.snapshot();
  out.final_census = count_apps(*dc);
  return out;
}

}  // namespace willow::tickbench
