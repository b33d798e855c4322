// The discrete-time simulation engine behind every Sec. V-B figure.
//
// One Simulation owns the plant (Datacenter), its workload, the switch
// fabric, the supply profile (optionally buffered by a UPS), and the Willow
// controller.  run() advances them in demand-period ticks, one Run::tick()
// each (simulation.cc), which calls the named stages in this order:
//
//   sample()          churn + fault-plane draws (sharded)
//   apply_churn()     departures and arrivals, in server order
//   (in tick)         ambient events; fault-plane apply
//   refresh_demand()  Poisson demand refresh + report-fault flags + traffic
//                     accounting (sharded)
//   (in tick)         supply / UPS step; fabric period reset + traffic
//                     deposit; controller.tick(available supply), whose
//                     migrations flow to the fabric; IPC flow traffic
//   step_thermal()    thermal stepping + per-server recording (sharded)
//   (in tick)         re-migration count
//   record()          serial metric recording after an optional warm-up
//
// After the last tick, finish() turns the run's state into the SimResult.
// The three sharded stages are the tick's only fan-outs over the thread pool
// (SimConfig::threads), with bit-deterministic results for any thread count:
// per-tick randomness comes from counter-based per-server streams
// (util::tick_stream) and shared accumulators are deposited in fixed server
// order between the batches.  The controller itself stays serial — a control
// period is a causal chain (demand -> reports -> budgets -> migrations).
//
// The recorded SimResult carries everything Figures 5–12 plot.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/link_faults.h"
#include "fault/plane.h"
#include "net/fabric.h"
#include "obs/bus.h"
#include "obs/metrics.h"
#include "power/cooling.h"
#include "power/supply.h"
#include "power/ups.h"
#include "sim/datacenter.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/demand.h"
#include "workload/flows.h"
#include "workload/intensity.h"
#include "workload/mix.h"

namespace willow::sim {

struct SimConfig {
  SimConfig();

  /// Plant shape; the paper's Fig. 3 by default.
  DatacenterOptions datacenter{};
  /// Target mean utilization per server, interpreted against the *thermally
  /// sustainable* dynamic power of the baseline (cool-ambient) server.
  ///
  /// With the paper's constants the sustainable steady-state draw is
  /// c2/c1 * (T_limit - Ta) ~ 28 W per 450 W-rated server, so utilization in
  /// the simulation figures is a fraction of that envelope — consistent with
  /// Fig. 5's "power consumed increases ... but only upto the limit provided
  /// by the thermal constraint".  The 450 W nameplate acts as the transient
  /// (cold-start) cap of Fig. 4.
  double target_utilization = 0.5;
  /// Workload shape knobs (catalog/unit power); target_mean_per_server is
  /// derived from target_utilization and overwritten.
  workload::MixConfig mix{};
  /// Poisson demand quantum (W per in-flight query).  1 W against per-app
  /// means of 1–9 W gives the visible per-period variance the paper's
  /// Poisson-demand assumption implies; smaller quanta make demand nearly
  /// deterministic.
  util::Watts demand_quantum{1.0};
  /// Supply profile; nullptr means "plenty": sum of server nameplates.
  std::shared_ptr<const power::SupplyProfile> supply{};
  /// Optional UPS between the raw supply and the root PMU.
  std::optional<power::Ups> ups{};
  /// Demand-intensity profile; nullptr means constant 1.0 (stationary load).
  std::shared_ptr<const workload::IntensityProfile> intensity{};
  /// Optional cooling plant: when set, facility power and PUE are recorded
  /// (heat rejection at the baseline ambient temperature).
  std::optional<power::CoolingModel> cooling{};
  /// Controller parameters (ΔD/η1/η2/margins/packing...).
  core::ControllerConfig controller{};
  /// Incremental (change-driven) control plane: dirty-set demand
  /// aggregation, memoized budget divisions and the consolidation root
  /// failure cache and capacity index.  Semantically identical to the full
  /// recompute — same budgets, migrations and event trace; the scenario
  /// knob exists so benchmarks and A/B runs can flip the walk policy
  /// without touching the nested controller config (copied onto
  /// controller.incremental at build time).
  bool incremental_control = true;
  /// Debug shadow mode: every skip the incremental path takes is re-derived
  /// from scratch and any bitwise divergence throws (copied onto
  /// controller.shadow_diff at build time).  Expensive; CI-only.
  bool shadow_diff = false;
  /// Optional under-designed rack feed rating applied to every rack (the
  /// Sec.-I lean-design scenario); nullopt means racks never bind.
  std::optional<util::Watts> rack_circuit_limit{};
  /// Switch fabric parameters (Fig. 8 mirror of the PMU tree).
  net::FabricConfig fabric{};
  /// Fraction of each server's applications wired into an IPC chain
  /// (tiers of one service, initially co-located).  0 keeps the paper's
  /// transactional assumption of no inter-server traffic; > 0 exercises the
  /// future-work scenario where migrations can separate chatty tiers.
  double ipc_chain_fraction = 0.0;
  /// Traffic units per IPC flow (1.0 == one fully utilized server's query
  /// traffic).
  double ipc_flow_units = 0.25;
  /// Scheduled ambient-temperature changes (heat waves, cooling failures and
  /// repairs): at `tick`, servers with index in [first_server, last_server]
  /// (0-based, inclusive) get the new ambient.  The other half of the
  /// paper's title — *thermal* adaptation — under a changing environment.
  struct AmbientEvent {
    long tick = 0;
    std::size_t first_server = 0;
    std::size_t last_server = 0;
    util::Celsius ambient{25.0};
  };
  std::vector<AmbientEvent> ambient_events{};

  /// SLA response-time inflation bound for the QoS tracker; 0 disables QoS
  /// recording (see workload/qos.h).  A typical interactive SLA: 5.0 (the
  /// server may run up to 80% of its serviceable capacity).
  double sla_inflation = 0.0;
  /// Per-server, per-tick probability of a lost demand report (fault
  /// injection; the PMU acts on stale state until the next report).
  double report_loss_probability = 0.0;
  /// Deterministic fault-injection plane (docs/fault_model.md): PMU link
  /// message loss/delay/duplication, sensor stuck-at/bias/dropout episodes,
  /// probabilistic and scripted server crashes, UPS failure windows.  All
  /// schedules are pure functions of `seed` via util::tick_stream, so traces
  /// stay byte-identical for any `threads`; the default (all zeros) installs
  /// no hooks and reproduces a fault-free run byte for byte.
  fault::FaultConfig faults{};
  /// Workload churn: per-server, per-tick probability that one hosted
  /// application departs and a fresh one (random class) arrives on the same
  /// server — the paper's "variations in workload ... characteristics".
  double churn_probability = 0.0;
  /// RNG seed for workload build + demand draws.
  unsigned long long seed = 42;
  /// Ticks ignored before recording starts.
  long warmup_ticks = 20;
  /// Ticks recorded.
  long measure_ticks = 200;
  /// Tick-engine worker threads for the sharded per-server phases (churn
  /// sampling, demand refresh, fault sampling, traffic accounting, thermal
  /// stepping).  0 = hardware concurrency; 1 = serial (no pool).  Results
  /// are bit-identical for every value: all per-tick randomness comes from
  /// counter-based streams keyed by (seed, tick, server), and shared
  /// accumulators are reduced in fixed server order.
  std::size_t threads = 0;

  /// Observability sinks attached to the simulation's event bus at build
  /// time (JSONL trace writer, ring buffer, custom test sinks).  Empty means
  /// event tracing is off — emitters see a disabled bus and pay only a
  /// branch; the metrics registry still accumulates.
  std::vector<std::shared_ptr<obs::Sink>> sinks{};

  /// Structured validation: every problem found, as one human-readable
  /// "field: why" string each.  Empty means the configuration is usable.
  /// The Simulation constructor calls this and throws std::invalid_argument
  /// with the aggregated list; CLI front-ends call it directly to report all
  /// problems at once instead of dying on the first.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Thermally sustainable dynamic power of the baseline server (W): the
  /// denominator of the simulation's utilization scale.  The build sizes
  /// each server's workload to target_utilization times this.
  [[nodiscard]] double sustainable_dynamic_w() const;
};

struct ServerMetrics {
  util::RunningStats consumed_power;   ///< W, over recorded ticks
  util::RunningStats temperature;      ///< degC
  util::RunningStats utilization;      ///< served dynamic / sustainable dynamic
  double asleep_fraction = 0.0;        ///< recorded ticks spent asleep
  /// Consolidation saving proxy: mean over recorded ticks of the power the
  /// server would have drawn at the scenario's target utilization while it
  /// was actually asleep (Fig. 7's quantity).
  double saved_power_w = 0.0;
};

struct SwitchMetrics {
  hier::NodeId group = hier::kNoNode;
  util::RunningStats power;            ///< per-physical-switch W
  util::RunningStats traffic;          ///< period traffic units
  util::RunningStats migration_cost;   ///< W of temporary demand per period
};

struct SimResult {
  /// PMU leaf id of each entry in `servers`, index-aligned (creation /
  /// paper numbering order — the cluster's server slot order).  Use the
  /// keyed accessors below instead of positional indexing: positions couple
  /// callers to fleet build order, node ids do not.
  std::vector<hier::NodeId> server_nodes;
  std::vector<ServerMetrics> servers;          ///< index-aligned w/ server_nodes
  std::vector<SwitchMetrics> level1_switches;  ///< Fig. 11 / Fig. 12
  util::TimeSeries migrations_per_tick;
  util::TimeSeries demand_migrations_per_tick;
  util::TimeSeries consolidation_migrations_per_tick;
  util::TimeSeries normalized_migration_traffic;  ///< Fig. 10's series
  util::TimeSeries remote_flow_traffic;  ///< IPC units crossing the fabric
  util::TimeSeries mean_flow_hops;       ///< avg switch hops per IPC flow
  util::TimeSeries imbalance;                     ///< Eq. (9) at server level
  util::TimeSeries total_power;                   ///< consumed IT W
  util::TimeSeries supply_series;                 ///< available W at root
  util::TimeSeries intensity_series;              ///< demand multiplier used
  util::TimeSeries facility_power;  ///< IT + cooling W (empty w/o cooling)
  util::TimeSeries pue;             ///< facility / IT (empty w/o cooling)
  util::TimeSeries qos_satisfaction;   ///< demand-weighted SLA fraction
  util::TimeSeries qos_mean_inflation; ///< demand-weighted response inflation
  core::ControllerStats controller_stats;  ///< full run including warm-up
  /// End-of-run snapshot of the event bus's metrics registry: event and
  /// controller counters, packing histograms, per-phase wall-clock timers.
  /// Timer values are wall-clock and thus the one non-deterministic part of
  /// a SimResult; they never enter the event trace.
  obs::MetricsSnapshot metrics;
  long ticks = 0;

  /// Keyed per-server lookup by PMU leaf id; nullptr when `node` is not a
  /// recorded server.  Linear scan — meant for analysis/report code, not hot
  /// loops (those index `servers` by slot).
  [[nodiscard]] const ServerMetrics* find_server_metrics(
      hier::NodeId node) const {
    for (std::size_t i = 0; i < server_nodes.size(); ++i) {
      if (server_nodes[i] == node) return &servers[i];
    }
    return nullptr;
  }
  /// As find_server_metrics, but throws std::out_of_range on a miss.
  [[nodiscard]] const ServerMetrics& server_metrics(hier::NodeId node) const {
    if (const ServerMetrics* m = find_server_metrics(node)) return *m;
    throw std::out_of_range("SimResult: no metrics for node " +
                            std::to_string(node));
  }

  /// Migration counts within the measurement window only (warm-up excluded);
  /// what Fig. 9 plots.
  [[nodiscard]] double measured_demand_migrations() const {
    return demand_migrations_per_tick.stats().sum();
  }
  [[nodiscard]] double measured_consolidation_migrations() const {
    return consolidation_migrations_per_tick.stats().sum();
  }
  /// Highest temperature any server ever reached (thermal-safety check).
  double max_temperature_c = 0.0;
  /// True if any server exceeded its thermal limit at any recorded tick.
  bool thermal_violation = false;
  /// Applications re-migrated within 3 demand periods of their previous move
  /// (whole run): the ping-pong count Property 4 says margins should keep at
  /// zero.  The P_min ablation sweeps this.
  std::uint64_t quick_remigrations = 0;
  /// Workload churn applied during the run.
  std::uint64_t churn_departures = 0;
  std::uint64_t churn_arrivals = 0;
};

class Simulation {
 public:
  explicit Simulation(SimConfig config);

  /// Run warmup + measurement; callable once.
  SimResult run();

  /// Access to the plant (tests inspect it after run()).
  [[nodiscard]] Datacenter& datacenter() { return *dc_; }
  [[nodiscard]] core::Controller& controller() { return *controller_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }

  /// The IPC flows wired at build time (empty unless ipc_chain_fraction > 0).
  [[nodiscard]] const workload::FlowSet& flows() const { return flows_; }

  /// The run's event bus.  SimConfig::sinks are attached at build time; more
  /// sinks may be attached before run().  Also reaches the metrics registry.
  [[nodiscard]] obs::EventBus& event_bus() { return bus_; }

 private:
  /// One run's state and its tick stages (simulation.cc).
  struct Run;

  void build();

  SimConfig config_;
  obs::EventBus bus_;
  workload::FlowSet flows_;
  workload::AppIdAllocator ids_;
  std::unique_ptr<Datacenter> dc_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<core::Controller> controller_;
  /// Fault-injection state machines; null unless the scenario arms them
  /// (construction is the arming: every fault path in the tick loop is
  /// behind a null check, keeping fault-free runs byte-identical).
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  std::unique_ptr<fault::LinkFaultModel> link_faults_;
  /// Worker pool for the sharded tick phases; null when the effective thread
  /// count is 1 (serial engine, no pool spun up).
  std::unique_ptr<util::ThreadPool> pool_;
  bool ran_ = false;
};

/// Convenience: configure-and-run in one call.
SimResult run_simulation(SimConfig config);

}  // namespace willow::sim
