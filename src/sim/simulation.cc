#include "sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workload/qos.h"

namespace willow::sim {

using util::Seconds;
using util::Watts;

SimConfig::SimConfig() {
  // Simulation-scale controller defaults: margins and costs sized to the
  // ~28 W thermal envelope, utilization judged thermally (see
  // target_utilization's comment).
  controller.margin = util::Watts{1.5};
  controller.migration_cost = util::Watts{0.5};
  controller.utilization_reference =
      core::UtilizationReference::kThermalSustainable;
  // The simulation section leaves the consolidation threshold unspecified;
  // 0.5 reproduces Fig. 9's crossover ("At 50% utilization ... both demand
  // and consolidation driven migrations occur almost equally").
  controller.consolidation_threshold = 0.5;
  // One relative power unit of the simulation catalog (classes 1, 2, 5, 9)
  // is one watt at this scale.
  mix.unit_power = util::Watts{1.0};
}

std::vector<std::string> SimConfig::validate() const {
  std::vector<std::string> errors;
  const auto& layout = datacenter.layout;
  if (layout.zones == 0 || layout.racks_per_zone == 0 ||
      layout.servers_per_rack == 0) {
    errors.push_back(
        "datacenter.layout: zero servers (zones, racks_per_zone and "
        "servers_per_rack must all be >= 1)");
  } else if (!layout.fits_node_ids()) {
    errors.push_back(
        "datacenter.layout: too many nodes (1 + zones + racks + servers must "
        "stay below " + std::to_string(hier::kNoNode) + ")");
  }
  if (!(datacenter.smoothing_alpha > 0.0) ||
      datacenter.smoothing_alpha > 1.0) {
    errors.push_back("datacenter.smoothing_alpha: must be in (0,1]");
  }
  // Range checks are written negated (!(x >= 0)) so that NaN fails them.
  if (!(demand_quantum.value() >= 0.0)) {
    errors.push_back("demand_quantum: must be a wattage >= 0");
  }
  if (!(mix.unit_power.value() >= 0.0)) {
    errors.push_back("mix.unit_power: must be a wattage >= 0");
  }
  if (!(target_utilization > 0.0)) {
    errors.push_back("target_utilization: must be > 0");
  }
  if (rack_circuit_limit && !(rack_circuit_limit->value() >= 0.0)) {
    errors.push_back("rack_circuit_limit: must be a wattage >= 0");
  }
  if (ups && !supply) {
    errors.push_back(
        "ups: a UPS buffers a supply profile; set `supply` too (with "
        "unconstrained supply the battery never does anything)");
  }
  if (!(ipc_chain_fraction >= 0.0 && ipc_chain_fraction <= 1.0)) {
    errors.push_back("ipc_chain_fraction: must be in [0,1]");
  }
  if (!(ipc_flow_units >= 0.0)) {
    errors.push_back("ipc_flow_units: must be >= 0");
  }
  // The plant would throw on these only once a ThermalModel is built.
  try {
    datacenter.server.thermal.validate();
    // The build appends apps to each server until they reach this demand; no
    // server can draw more than its nameplate.
    const double target = sustainable_dynamic_w() * target_utilization;
    const double nameplate = datacenter.server.thermal.nameplate.value();
    if (!(target <= nameplate)) {
      std::ostringstream msg;
      msg << "target_utilization: per-server target demand " << target
          << " W (target_utilization x the sustainable dynamic power of "
             "datacenter.server.thermal) must be finite and at most "
             "datacenter.server.thermal.nameplate ("
          << nameplate << " W)";
      errors.push_back(msg.str());
    }
  } catch (const std::invalid_argument& e) {
    errors.push_back(std::string("datacenter.server.thermal: ") + e.what());
  }
  if (!(report_loss_probability >= 0.0 && report_loss_probability <= 1.0)) {
    errors.push_back("report_loss_probability: must be in [0,1]");
  }
  if (!(churn_probability >= 0.0 && churn_probability <= 1.0)) {
    errors.push_back("churn_probability: must be in [0,1]");
  }
  if (!(sla_inflation >= 0.0)) {
    errors.push_back("sla_inflation: must be >= 0 (0 disables QoS tracking)");
  }
  if (warmup_ticks < 0) {
    errors.push_back("warmup_ticks: must be >= 0");
  }
  if (measure_ticks < 0) {
    errors.push_back("measure_ticks: must be >= 0");
  }
  // Server ranges must fit the fleet; the run would silently clip them.
  const std::size_t fleet = datacenter.layout.total_servers();
  const auto check_in_fleet = [&](const std::string& field, std::size_t i,
                                  std::size_t last_server) {
    if (last_server >= fleet) {
      errors.push_back(field + "[" + std::to_string(i) + "]: last_server " +
                       std::to_string(last_server) + " is outside the " +
                       std::to_string(fleet) + "-server fleet");
    }
  };
  for (std::size_t i = 0; i < ambient_events.size(); ++i) {
    const auto& ev = ambient_events[i];
    check_in_fleet("ambient_events", i, ev.last_server);
    if (ev.first_server > ev.last_server) {
      errors.push_back("ambient_events[" + std::to_string(i) +
                       "]: first_server > last_server");
    }
    if (ev.tick < 0) {
      errors.push_back("ambient_events[" + std::to_string(i) +
                       "]: negative tick");
    }
  }
  for (const auto& e : faults.validate("faults.")) {
    errors.push_back(e);
  }
  for (std::size_t i = 0; i < faults.crash_events.size(); ++i) {
    check_in_fleet("faults.crash_event", i, faults.crash_events[i].last_server);
  }
  // threads: any value is meaningful (0 = hardware concurrency, 1 = serial,
  // n = pool of n), so there is nothing to reject.
  return errors;
}

double SimConfig::sustainable_dynamic_w() const {
  const auto& thermal = datacenter.server.thermal;
  const double sustainable =
      thermal.c2 * (thermal.limit.value() - thermal.ambient.value()) /
      thermal.c1;
  const double idle = datacenter.server.power_model.static_power().value();
  return std::max(1e-9, sustainable - idle);
}

Simulation::Simulation(SimConfig config) : config_(std::move(config)) {
  const auto errors = config_.validate();
  if (!errors.empty()) {
    std::string msg = "SimConfig::validate failed:";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
  build();
}

void Simulation::build() {
  for (auto& sink : config_.sinks) {
    if (sink) bus_.add_sink(sink);
  }
  dc_ = build_datacenter(config_.datacenter);
  auto& cluster = dc_->cluster;
  cluster.set_event_bus(&bus_);  // also attaches the PMU tree
  if (config_.ups) config_.ups->set_event_bus(&bus_);

  // Size the workload: mean aggregate app demand per server targets
  // target_utilization of the baseline thermally sustainable dynamic power.
  workload::MixConfig mix = config_.mix;
  mix.target_mean_per_server =
      Watts{config_.sustainable_dynamic_w() * config_.target_utilization};
  util::Rng rng(config_.seed);
  auto mixes =
      workload::build_datacenter_mix(mix, dc_->servers.size(), ids_, rng);
  std::vector<std::vector<workload::AppId>> chain_groups;
  for (std::size_t i = 0; i < dc_->servers.size(); ++i) {
    if (config_.ipc_chain_fraction > 0.0) {
      const auto chained = static_cast<std::size_t>(
          config_.ipc_chain_fraction * static_cast<double>(mixes[i].size()) +
          0.5);
      std::vector<workload::AppId> group;
      for (std::size_t a = 0; a < chained && a < mixes[i].size(); ++a) {
        group.push_back(mixes[i][a].id());
      }
      if (group.size() >= 2) chain_groups.push_back(std::move(group));
    }
    for (auto& app : mixes[i]) cluster.place(std::move(app), dc_->servers[i]);
  }
  flows_ = workload::chain_flows(chain_groups, config_.ipc_flow_units);

  if (config_.rack_circuit_limit) {
    for (hier::NodeId rack : dc_->racks) {
      cluster.set_group_circuit_limit(rack, *config_.rack_circuit_limit);
    }
  }

  fabric_ = std::make_unique<net::Fabric>(cluster.tree(), config_.fabric);
  config_.controller.incremental = config_.incremental_control;
  config_.controller.shadow_diff = config_.shadow_diff;
  controller_ = std::make_unique<core::Controller>(cluster, config_.controller);
  controller_->set_event_bus(&bus_);

  // Fault plane arming: models exist only when the scenario configures them,
  // so a zero-fault run installs no hooks (and registers no fault counters).
  if (config_.faults.link.any()) {
    link_faults_ = std::make_unique<fault::LinkFaultModel>(config_.faults.link,
                                                           config_.seed);
    controller_->set_link_faults(link_faults_.get());
  }
  if (config_.faults.server_faults_enabled()) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(
        config_.faults, config_.seed, dc_->servers.size());
  }

  const std::size_t threads =
      config_.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config_.threads;
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
  controller_->set_migration_sink([this](const core::MigrationRecord& rec) {
    const auto* app = dc_->cluster.find_app(rec.app);
    const double payload =
        app ? app->image_size().value() / 1024.0 : 1.0;  // GiB units
    fabric_->add_migration(rec.from, rec.to, payload);
  });
}

/// One run's state: the result being recorded, per-tick scratch, the
/// resolved instruments and the fault callbacks.  tick() is one demand
/// period; the stages it calls are defined below at namespace scope.
struct Simulation::Run {
  /// One server's churn draw, sampled sharded and applied serially.
  struct ChurnDecision {
    bool churn = false;          ///< this server churns this tick
    bool has_departure = false;  ///< a removable app was found
    workload::AppId departure = 0;
    std::size_t cls = 0;  ///< catalog class of the arriving app
    int priority = 0;
  };

  explicit Run(Simulation& sim);
  Run(const Run&) = delete;  // the fault callbacks capture `this`

  void tick(long tick);
  SimResult finish();

  void arm_fault_callbacks();
  void sample(long tick);
  void apply_churn();
  void refresh_demand(long tick, double intensity);
  void step_thermal(bool recording);
  void record(double t, double intensity, Watts supply, double remote_units,
              double flow_hops);
  double norm_util(const core::ManagedServer& srv, Watts consumed) const;

  Simulation& sim;
  SimConfig& config;
  core::Cluster& cluster;
  hier::Tree& tree;
  const std::vector<hier::NodeId>& servers;
  core::Controller& controller;
  net::Fabric& fabric;
  obs::EventBus& bus;
  util::ThreadPool* const pool;
  const std::size_t n_servers;
  const double sustainable;
  const Seconds dt;
  /// Default supply: plenty (sum of nameplates).
  Watts plenty{0.0};
  /// Quantum 0 means deterministic demand (each app draws exactly its scaled
  /// mean) — the steady-state regime the incremental control plane exploits;
  /// PoissonDemand itself requires a positive quantum.
  std::optional<workload::PoissonDemand> demand;
  SimResult result;
  std::uint64_t prev_dm = 0, prev_cm = 0;
  std::unordered_map<workload::AppId, long> last_move;

  // Sharded-phase scratch, reused across ticks.
  std::vector<ChurnDecision> churn_plan;
  std::vector<double> traffic_units;
  /// Columns the thermal batch fills on recorded ticks, one slot per server,
  /// so record() reduces dense arrays instead of revisiting every server and
  /// its PMU leaf: the temperature after the step and whether it broke the
  /// limit, the power the step charged, and the leaf's smoothed demand minus
  /// its budget (+0 for an inactive leaf, which level_balance skips).
  std::vector<double> temps;
  std::vector<char> over_limit;
  std::vector<double> consumed_w;
  std::vector<double> excess_w;

  // Instruments are resolved once; updates inside the loop are pointer
  // writes.  Timers measure wall-clock and stay out of the event trace.
  obs::MetricsRegistry& metrics;
  obs::Timer& t_sample;
  obs::Timer& t_churn;
  obs::Timer& t_demand;
  obs::Timer& t_controller;
  /// Same phase, warm-up excluded: the steady-state controller cost the
  /// scaling benchmark reports (warm-up ticks are dominated by first-pass
  /// cache seeding and thermal settling, which would mask the steady state).
  obs::Timer& t_controller_measured;
  obs::Timer& t_thermal;
  obs::Timer& t_record;
  /// Whole-tick wall time on post-warmup ticks only — every phase including
  /// recording.  This is what the data-plane scaling bench reports as
  /// ticks-per-second (the controller-only timer above under-counts the
  /// record/thermal cost that dominates at large fleets).
  obs::Timer& t_tick_measured;
  obs::Histogram& h_migrations;
  obs::Counter& c_ticks;

  // Fault instruments are created only on armed runs (timer()/counter()
  // register on first use), so a zero-fault metrics snapshot is unchanged.
  obs::Timer* t_fault = nullptr;
  obs::Counter* c_crashes = nullptr;
  obs::Counter* c_restarts = nullptr;
  obs::Counter* c_sensor_faults = nullptr;
  obs::Counter* c_sensor_recoveries = nullptr;
  fault::FaultPlane::Callbacks fault_cb;
};

Simulation::Run::Run(Simulation& s)
    : sim(s),
      config(s.config_),
      cluster(s.dc_->cluster),
      tree(s.dc_->cluster.tree()),
      servers(s.dc_->servers),
      controller(*s.controller_),
      fabric(*s.fabric_),
      bus(s.bus_),
      pool(s.pool_.get()),
      n_servers(servers.size()),
      sustainable(s.config_.sustainable_dynamic_w()),
      dt(config.controller.demand_period),
      traffic_units(n_servers, -1.0),
      temps(n_servers, 0.0),
      over_limit(n_servers, 0),
      consumed_w(n_servers, 0.0),
      excess_w(n_servers, 0.0),
      metrics(bus.metrics()),
      t_sample(metrics.timer("sim.phase.sample")),
      t_churn(metrics.timer("sim.phase.churn")),
      t_demand(metrics.timer("sim.phase.demand")),
      t_controller(metrics.timer("sim.phase.controller")),
      t_controller_measured(metrics.timer("sim.phase.controller.measured")),
      t_thermal(metrics.timer("sim.phase.thermal")),
      t_record(metrics.timer("sim.phase.record")),
      t_tick_measured(metrics.timer("sim.phase.tick.measured")),
      h_migrations(metrics.histogram("sim.migrations_per_tick",
                                     {0, 1, 2, 4, 8, 16, 32})),
      c_ticks(metrics.counter("sim.ticks")) {
  for (hier::NodeId srv : servers) {
    plenty += cluster.server(srv).thermal().params().nameplate;
  }
  // record() reads the server level's balance from the thermal batch's
  // columns, which cover exactly the fleet in slot order.
  if (tree.nodes_at_level(0) != servers) {
    throw std::logic_error("Simulation: the server level is not the fleet");
  }
  if (config.demand_quantum.value() > 0.0) {
    demand.emplace(config.demand_quantum);
  }
  result.server_nodes = servers;
  result.servers.resize(n_servers);
  for (hier::NodeId group : fabric.level1_groups()) {
    result.level1_switches.emplace_back().group = group;
  }
  if (s.fault_plane_) arm_fault_callbacks();
}

void Simulation::Run::arm_fault_callbacks() {
  t_fault = &metrics.timer("sim.phase.fault");
  c_crashes = &metrics.counter("fault.crashes");
  c_restarts = &metrics.counter("fault.restarts");
  c_sensor_faults = &metrics.counter("fault.sensor_faults");
  c_sensor_recoveries = &metrics.counter("fault.sensor_recoveries");
  fault_cb.skip_crash = [this](std::size_t i) {
    // A consolidated (asleep) server has no running plant to crash.
    return cluster.server_at(i).asleep();
  };
  fault_cb.crash = [this](std::size_t i, long down_ticks) {
    const hier::NodeId s = servers[i];
    cluster.crash_server(s);
    controller.note_availability_change(s);
    if (bus.enabled()) {
      obs::Event e;
      e.type = obs::EventType::kNodeDown;
      e.node = s;
      e.value = static_cast<double>(down_ticks);
      bus.emit(std::move(e));
    }
    c_crashes->increment();
  };
  fault_cb.restart = [this](std::size_t i) {
    const hier::NodeId s = servers[i];
    cluster.restore_server(s);
    // Recovery re-sync: the availability flip re-dirties the node's report
    // path, the parent's roll-up and the division, exactly like a wake.
    controller.note_availability_change(s);
    if (bus.enabled()) {
      for (auto type :
           {obs::EventType::kNodeUp, obs::EventType::kResyncComplete}) {
        obs::Event e;
        e.type = type;
        e.node = s;
        bus.emit(std::move(e));
      }
    }
    c_restarts->increment();
  };
  fault_cb.sensor = [this](std::size_t i, const fault::SensorOverride& o,
                           bool temp_sensor) {
    auto& srv = cluster.server_at(i);
    fault::SensorOverride applied = o;
    // Stuck-at onset: freeze at the value the sensor read at that moment.
    if (applied.mode == fault::SensorMode::kStuck && applied.param == 0.0) {
      applied.param = temp_sensor ? srv.thermal().temperature().value()
                                  : srv.power_demand().value();
    }
    if (temp_sensor) {
      srv.set_temp_sensor(applied);
    } else {
      srv.set_power_sensor(applied);
    }
    controller.note_external_change(servers[i]);
    if (bus.enabled()) {
      obs::Event e;
      e.type = obs::EventType::kSensorFault;
      e.node = servers[i];
      e.value = applied.param;
      // aux encodes which sensor and what happened: mode code (0 recovery,
      // 1 stuck, 2 bias, 3 dropout) plus 10 for the temperature sensor.
      e.aux = static_cast<double>(static_cast<int>(applied.mode)) +
              (temp_sensor ? 10.0 : 0.0);
      bus.emit(std::move(e));
    }
    (applied.healthy() ? c_sensor_recoveries : c_sensor_faults)->increment();
  };
}

// Served dynamic power as a fraction of the sustainable envelope — the
// simulation's utilization scale for traffic and recording.
double Simulation::Run::norm_util(const core::ManagedServer& srv,
                                  Watts consumed) const {
  if (srv.asleep()) return 0.0;
  const double dynamic = (consumed - srv.idle_floor()).value();
  return std::clamp(dynamic / sustainable, 0.0, 2.0);
}

SimResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run: already ran");
  ran_ = true;
  Run run(*this);
  const long total_ticks = config_.warmup_ticks + config_.measure_ticks;
  for (long tick = 0; tick < total_ticks; ++tick) run.tick(tick);
  return run.finish();
}

void Simulation::Run::tick(long tick) {
  const bool recording = tick >= config.warmup_ticks;
  const obs::ScopedTimer tick_timer(recording ? &t_tick_measured : nullptr);
  const double t = static_cast<double>(tick) * dt.value();
  bus.set_tick(tick);
  c_ticks.increment();
  if (sim.link_faults_) sim.link_faults_->set_tick(tick);

  sample(tick);
  apply_churn();

  for (const auto& ev : config.ambient_events) {
    if (ev.tick != tick) continue;
    for (std::size_t i = ev.first_server; i <= ev.last_server && i < n_servers;
         ++i) {
      cluster.set_ambient(servers[i], ev.ambient);
      // The ambient shift re-zones the server (sustainable envelope moved)
      // without any demand report firing.
      controller.note_external_change(servers[i]);
    }
  }

  if (sim.fault_plane_) {
    const obs::ScopedTimer fault_timer(t_fault);
    // Sampling (if any) rode the fused fan-out in sample(); this is the
    // serial apply phase in fixed server order.
    sim.fault_plane_->apply(tick, fault_cb);
  }

  const double intensity =
      config.intensity ? config.intensity->at(Seconds{t}) : 1.0;
  refresh_demand(tick, intensity);

  Watts supply = config.supply ? config.supply->at(Seconds{t}) : plenty;
  if (config.ups && !config.faults.ups_failures.empty()) {
    const auto& windows = config.faults.ups_failures;
    config.ups->set_failed(
        std::any_of(windows.begin(), windows.end(), [&](const auto& w) {
          return tick >= w.first_tick && tick <= w.last_tick;
        }));
  }
  if (config.ups) {
    // The root PMU's demand from the previous reports is the best estimate
    // of what the load wants from the feed this period.
    const Watts want = tree.node(tree.root()).smoothed_demand();
    supply = config.ups->step(supply, util::max(want, supply), dt);
  }

  fabric.begin_period();
  // Per-server traffic was computed sharded (in the demand fan-out) and is
  // deposited serially in server order: fabric counters are floating-point
  // sums whose value must not depend on accumulation order.
  for (std::size_t i = 0; i < n_servers; ++i) {
    if (traffic_units[i] >= 0.0) {
      fabric.add_server_traffic(servers[i], traffic_units[i]);
    }
  }

  {
    const auto start = std::chrono::steady_clock::now();
    controller.tick(supply);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    t_controller.add(elapsed.count());
    if (recording) t_controller_measured.add(elapsed.count());
  }

  // IPC flows between now-separated endpoints cross the fabric.
  double remote_units = 0.0;
  double flow_hops = 0.0;
  for (const auto& flow : sim.flows_.flows()) {
    const auto ha = cluster.host_of(flow.a);
    const auto hb = cluster.host_of(flow.b);
    if (ha == hier::kNoNode || hb == hier::kNoNode) continue;
    const auto hops = fabric.add_flow_traffic(ha, hb, flow.traffic_units);
    flow_hops += static_cast<double>(hops);
    if (hops > 0) remote_units += flow.traffic_units;
  }

  step_thermal(recording);

  for (const auto& rec : controller.migrations_this_tick()) {
    auto it = last_move.find(rec.app);
    if (it != last_move.end() && controller.tick_count() - it->second < 3) {
      ++result.quick_remigrations;
    }
    last_move[rec.app] = controller.tick_count();
  }

  if (recording) record(t, intensity, supply, remote_units, flow_hops);
}

void Simulation::Run::sample(long tick) {
  // Fused sample fan-out: churn and fault-plane draws share one batch.
  // Both sides are read-only against shared state and pull from
  // independent counter-based streams ((seed, tick, i, kChurn) vs
  // kSensor/kCrash), and neither serial apply phase writes anything the
  // other side's sampling reads (churn apply moves apps, never the
  // asleep/crashed flags the fault draws consult), so fusing them is
  // bitwise-neutral — it just halves the per-tick fan-out count.
  const bool churn_active = config.churn_probability > 0.0;
  auto* fault_plane = sim.fault_plane_.get();
  const bool fault_sampling =
      fault_plane != nullptr && fault_plane->needs_sampling();
  if (!churn_active && !fault_sampling) return;
  const obs::ScopedTimer sample_timer(&t_sample);
  const auto& catalog = workload::simulation_catalog();
  if (churn_active) churn_plan.assign(n_servers, {});
  if (fault_sampling) fault_plane->begin_tick();
  const util::TickStreams streams(config.seed,
                                  static_cast<std::uint64_t>(tick));
  util::parallel_for_ranges(
      pool, n_servers, [&](std::size_t begin, std::size_t end) {
        if (churn_active) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto& srv = cluster.server_at(i);
            // A crashed server is unreachable: nothing departs, nothing
            // arrives, until it restarts.
            if (srv.asleep() || srv.crashed() || srv.apps().empty()) continue;
            auto rng = streams(i, util::stream_phase::kChurn);
            if (!rng.chance(config.churn_probability)) continue;
            auto& d = churn_plan[i];
            d.churn = true;
            // Departure: a random app that is not mid-transfer.
            std::vector<workload::AppId> removable;
            for (const auto& a : srv.apps()) {
              if (!controller.app_in_flight(a.id())) {
                removable.push_back(a.id());
              }
            }
            if (!removable.empty()) {
              d.has_departure = true;
              d.departure = removable[rng.index(removable.size())];
            }
            // Arrival: a fresh application of a random class, same server.
            d.cls = rng.index(catalog.size());
            if (config.mix.priority_levels > 1) {
              d.priority = rng.uniform_int(0, config.mix.priority_levels - 1);
            }
          }
        }
        if (fault_sampling) {
          fault_plane->sample_range(tick, begin, end, fault_cb);
        }
      });
}

void Simulation::Run::apply_churn() {
  if (!(config.churn_probability > 0.0)) return;
  const obs::ScopedTimer churn_timer(&t_churn);
  const auto& catalog = workload::simulation_catalog();
  // Apply phase (serial, fixed server order): placement mutations and app-id
  // allocation happen in index order regardless of thread count.
  for (std::size_t i = 0; i < n_servers; ++i) {
    const auto& d = churn_plan[i];
    if (!d.churn) continue;
    if (d.has_departure) {
      cluster.remove_app(d.departure);
      // The app is gone for good: drop its re-migration bookkeeping so the
      // map does not grow without bound under churn.
      last_move.erase(d.departure);
      ++result.churn_departures;
    }
    const Watts mean = config.mix.unit_power * catalog[d.cls].relative_power;
    workload::Application fresh(
        sim.ids_.next(), d.cls, mean,
        util::Megabytes{config.mix.image_per_unit.value() *
                        catalog[d.cls].relative_power});
    if (config.mix.priority_levels > 1) fresh.set_priority(d.priority);
    cluster.place(std::move(fresh), servers[i]);
    ++result.churn_arrivals;
    // Churn mutated the hosted set behind the controller's back.
    controller.note_external_change(servers[i]);
  }
}

void Simulation::Run::refresh_demand(long tick, double intensity) {
  const obs::ScopedTimer demand_timer(&t_demand);
  // One fan-out refreshes demand and piggybacks the other two per-server
  // jobs of this phase: the report-fault draw (independent kFault stream)
  // and the pre-controller traffic figure.  The latter reads only server i
  // plus its standing budget from last period — nothing between here and
  // the serial deposit in tick() (supply, UPS, fabric period reset) writes
  // either.
  const bool loss = config.report_loss_probability > 0.0;
  const util::TickStreams streams(config.seed,
                                  static_cast<std::uint64_t>(tick));
  const auto per_server = [&](std::size_t i) {
    if (loss) {
      auto rng = streams(i, util::stream_phase::kFault);
      cluster.set_report_fault(servers[i],
                               rng.chance(config.report_loss_probability));
    }
    const auto& srv = cluster.server_at(i);
    traffic_units[i] =
        srv.asleep() || srv.crashed()
            ? -1.0
            : norm_util(srv,
                        srv.consumed_power(tree.node(srv.node()).budget()));
  };
  if (demand) {
    cluster.refresh_demands(*demand, config.seed, tick, intensity, pool,
                            per_server);
  } else {
    cluster.refresh_demands_deterministic(intensity, pool, per_server);
  }
}

void Simulation::Run::step_thermal(bool recording) {
  const obs::ScopedTimer thermal_timer(&t_thermal);
  if (!recording) {
    cluster.step_thermal(dt, pool);
    return;
  }
  // Per-server metric accumulation rides the thermal batch on recorded
  // ticks: it reads only the server just stepped and its PMU leaf, and
  // writes slot i of result.servers and of the record columns.  The sums and
  // maxima over the fleet run serially in record().
  const auto& model = config.datacenter.server.power_model;
  const auto record_server = [&](std::size_t i, const hier::Node& leaf,
                                 Watts consumed) {
    const auto& srv = cluster.server_at(i);
    auto& m = result.servers[i];
    const auto& th = srv.thermal();
    const double temp = th.temperature().value();
    m.consumed_power.add(consumed.value());
    m.temperature.add(temp);
    m.utilization.add(norm_util(srv, consumed));
    if (srv.asleep()) {
      m.asleep_fraction += 1.0;
      // What the server would have drawn at the scenario's offered load.
      m.saved_power_w += model.static_power().value() +
                         sustainable * config.target_utilization;
    }
    temps[i] = temp;
    over_limit[i] = temp > th.params().limit.value() + 0.5;
    consumed_w[i] = consumed.value();
    excess_w[i] = util::keep_or_zero(
        leaf.active(), (leaf.smoothed_demand() - leaf.budget()).value());
  };
  cluster.step_thermal(dt, pool, record_server);
}

void Simulation::Run::record(double t, double intensity, Watts supply,
                             double remote_units, double flow_hops) {
  // The serial remainder of recording; the per-server accumulation rode the
  // thermal batch.
  const obs::ScopedTimer record_timer(&t_record);
  const auto& st = controller.stats();
  const auto dm = st.demand_migrations - prev_dm;
  const auto cm = st.consolidation_migrations - prev_cm;
  prev_dm = st.demand_migrations;
  prev_cm = st.consolidation_migrations;
  result.migrations_per_tick.record(t, static_cast<double>(dm + cm));
  h_migrations.observe(static_cast<double>(dm + cm));
  result.demand_migrations_per_tick.record(t, static_cast<double>(dm));
  result.consolidation_migrations_per_tick.record(t, static_cast<double>(cm));
  result.normalized_migration_traffic.record(
      t, fabric.normalized_migration_traffic());
  result.remote_flow_traffic.record(t, remote_units);
  const auto& flows = sim.flows_;
  result.mean_flow_hops.record(
      t, flows.empty() ? 0.0 : flow_hops / static_cast<double>(flows.size()));

  // Eq. (9) over the server level, as core::level_balance(tree, 0) computes
  // it.  [x]+ is node_deficit, and [-x]+ is node_surplus bit for bit (b - a
  // is -(a - b) in IEEE arithmetic, up to the sign of a zero that [.]+
  // drops).  Every term is >= +0, so the maxima do not depend on order.
  Watts max_deficit{0.0}, max_surplus{0.0};
  for (std::size_t i = 0; i < n_servers; ++i) {
    const Watts excess{excess_w[i]};
    max_deficit = util::max(max_deficit, util::positive_part(excess));
    max_surplus = util::max(max_surplus, util::positive_part(-excess));
  }
  result.imbalance.record(
      t, (max_deficit + util::min(max_deficit, max_surplus)).value());
  if (config.sla_inflation > 1.0) {
    workload::SlaTracker tracker(config.sla_inflation);
    for (hier::NodeId s : servers) {
      const auto& srv = cluster.server(s);
      double offered = 0.0, denied = 0.0;
      for (const auto& a : srv.apps()) {
        // A crashed host denies all of its hosted service until restart.
        if (a.dropped() || srv.asleep() || srv.crashed()) {
          denied += a.effective_mean_power().value() * intensity;
        } else {
          offered += a.demand().value();
        }
      }
      if (denied > 0.0) tracker.record_denied(denied);
      if (offered <= 0.0) continue;
      // Serviceable capacity: what the server may and can sustainably serve
      // beyond its idle floor.
      const Watts budget = tree.node(s).budget();
      const double capacity = std::max(
          0.0,
          (util::min(budget, srv.thermal().steady_state_power_limit()) -
           srv.idle_floor())
              .value());
      const double rho = capacity > 0.0 ? offered / capacity : 2.0;
      tracker.record(offered, rho);
    }
    result.qos_satisfaction.record(t, tracker.satisfaction());
    result.qos_mean_inflation.record(t, tracker.mean_inflation());
  }

  // Cluster::total_consumed(), summed in the same slot order.
  Watts it_power{0.0};
  for (std::size_t i = 0; i < n_servers; ++i) it_power += Watts{consumed_w[i]};
  result.total_power.record(t, it_power.value());
  result.supply_series.record(t, supply.value());
  result.intensity_series.record(t, intensity);
  if (config.cooling) {
    const auto outside = config.datacenter.server.thermal.ambient;
    result.facility_power.record(
        t, config.cooling->facility_power(it_power, outside).value());
    result.pue.record(t, config.cooling->pue(it_power, outside));
  }

  for (std::size_t i = 0; i < n_servers; ++i) {
    result.max_temperature_c = std::max(result.max_temperature_c, temps[i]);
    if (over_limit[i]) result.thermal_violation = true;
  }
  for (auto& m : result.level1_switches) {
    m.power.add(fabric.switch_power(m.group).value());
    const auto& gs = fabric.stats(m.group);
    m.traffic.add(gs.period_traffic);
    m.migration_cost.add(gs.period_migration_cost.value());
  }
  ++result.ticks;
}

SimResult Simulation::Run::finish() {
  if (result.ticks > 0) {
    for (auto& m : result.servers) {
      m.asleep_fraction /= static_cast<double>(result.ticks);
      m.saved_power_w /= static_cast<double>(result.ticks);
    }
  }
  result.controller_stats = controller.stats();
  // Mirror the controller's whole-run tallies as named counters, so external
  // consumers (perf_smoke's trace-vs-metrics diff, willow_cli --metrics) see
  // one uniform surface.
  const auto& cs = result.controller_stats;
  const std::pair<const char*, std::uint64_t> tallies[] = {
      {"controller.demand_migrations", cs.demand_migrations},
      {"controller.consolidation_migrations", cs.consolidation_migrations},
      {"controller.local_migrations", cs.local_migrations},
      {"controller.nonlocal_migrations", cs.nonlocal_migrations},
      {"controller.wakes", cs.wakes},
      {"controller.sleeps", cs.sleeps},
      {"controller.drops", cs.drops},
      {"controller.degrades", cs.degrades},
      {"controller.revivals", cs.revivals},
      {"controller.restores", cs.restores},
  };
  for (const auto& [name, n] : tallies) metrics.counter(name).increment(n);
  metrics.gauge("controller.degraded_demand_w").set(cs.degraded_demand.value());
  metrics.gauge("controller.dropped_demand_w").set(cs.dropped_demand.value());
  bus.flush();
  result.metrics = metrics.snapshot();
  return std::move(result);
}

SimResult run_simulation(SimConfig config) {
  Simulation sim(std::move(config));
  return sim.run();
}

}  // namespace willow::sim
