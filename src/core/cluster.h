// Cluster: the managed plant — PMU tree + servers + hosted applications.
//
// A ManagedServer couples one leaf of the power-control hierarchy with its
// physical models (thermal RC model, power-vs-utilization curve, circuit
// rating) and the applications (VMs) it currently hosts.  The Cluster owns
// the tree and the servers and provides the placement operations the
// controller uses (migrate / drop / sleep / wake) plus the per-period plant
// evolution (demand observation, power consumption, thermal stepping).
//
// Consumption model: an active server draws
//     consumed = idle_floor + min(served demand, budget - idle_floor)
// i.e. workload beyond the budget is throttled (the paper's degraded
// operation); a sleeping server draws nothing (the paper assumes standby
// power ~0, Sec. V-C5).  The demand a server *reports* upward is
// idle_floor + total application demand + temporary migration costs.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/arena.h"
#include "fault/fault.h"
#include "hier/tree.h"
#include "obs/bus.h"
#include "power/server_power.h"
#include "thermal/thermal_model.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/application.h"
#include "workload/demand.h"

namespace willow::util {
class ThreadPool;
}

namespace willow::core {

using hier::NodeId;
using util::Seconds;
using util::Watts;
using workload::AppId;
using workload::Application;

struct ServerConfig {
  thermal::ThermalParams thermal{};
  power::ServerPowerModel power_model = power::ServerPowerModel::paper_simulation();
  /// Power-circuit hard rating (Sec. IV-D hard constraints); defaults to the
  /// thermal nameplate.
  std::optional<Watts> circuit_limit{};
};

class ManagedServer {
 public:
  ManagedServer(NodeId node, const ServerConfig& cfg);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const thermal::ThermalModel& thermal() const { return thermal_; }
  [[nodiscard]] thermal::ThermalModel& thermal() { return thermal_; }
  [[nodiscard]] const power::ServerPowerModel& power_model() const {
    return power_model_;
  }
  [[nodiscard]] Watts circuit_limit() const { return circuit_limit_; }

  [[nodiscard]] const std::vector<Application>& apps() const { return apps_; }
  [[nodiscard]] std::vector<Application>& apps() { return apps_; }

  [[nodiscard]] bool asleep() const { return asleep_; }
  void set_asleep(bool a) { asleep_ = a; }

  /// Idle draw while active (reported as part of demand).
  [[nodiscard]] Watts idle_floor() const {
    return power_model_.static_power();
  }

  /// Temporary extra power demand from in-flight migrations (Sec. IV-E:
  /// "This cost is added as a temporary power demand to the nodes involved").
  [[nodiscard]] Watts temporary_demand() const { return temp_demand_; }
  /// Add `w` of temporary demand that expires after `periods` demand periods.
  void add_temporary_demand(Watts w, int periods);
  /// Advance one demand period: expire aged temporary demand.
  void age_temporary_demand();

  /// What this server reports up the tree: 0 when asleep, otherwise
  /// idle floor + live application demand + temporary migration demand.
  [[nodiscard]] Watts power_demand() const;

  /// Application-demand sum cache: the demand refresh loops deposit the
  /// freshly summed live demand here so power_demand() — called several
  /// times per tick by observation, consumption and packing — is O(1)
  /// instead of O(apps).  Every mutation of the hosted set or of an
  /// individual app's demand/dropped state outside the refresh loops must
  /// invalidate (Cluster's placement ops and the controller's shed/revive
  /// paths do).  An invalid cache only costs the O(apps) fallback.
  void set_cached_app_demand(Watts w) {
    cached_app_demand_ = w;
    app_demand_valid_ = true;
  }
  void invalidate_app_demand_cache() { app_demand_valid_ = false; }

  /// Fault injection: while set, the server's demand report is lost — the
  /// PMU leaf keeps acting on its previous observation (stale CP).  Models
  /// the measurement/communication failures the convergence analysis
  /// (Sec. V-A1) assumes away.
  void set_report_fault(bool faulty) { report_fault_ = faulty; }

  /// Crashed: the server is down hard (no demand, no consumption, apps
  /// denied) until restarted.  Unlike sleep, a crash keeps the hosted
  /// applications in place — they resume when the server comes back.
  [[nodiscard]] bool crashed() const { return crashed_; }
  void set_crashed(bool c) { crashed_ = c; }

  /// Sensor overrides (fault injection; see docs/fault_model.md).  The
  /// controller consumes *sensed* values; the plant itself keeps evolving on
  /// the true ones.
  [[nodiscard]] const fault::SensorOverride& power_sensor() const {
    return power_sensor_;
  }
  void set_power_sensor(const fault::SensorOverride& o) {
    power_sensor_ = o;
  }
  [[nodiscard]] const fault::SensorOverride& temp_sensor() const {
    return temp_sensor_;
  }
  void set_temp_sensor(const fault::SensorOverride& o) {
    temp_sensor_ = o;
  }

  /// The power demand the PMU *sees*: power_demand() filtered through the
  /// power-sensor override.  Bitwise equal to power_demand() while healthy.
  [[nodiscard]] Watts sensed_demand() const;
  /// True when no usable demand reading reaches the PMU this tick (lost
  /// report or power-sensor dropout).
  [[nodiscard]] bool demand_reading_lost() const {
    return report_fault_ ||
           power_sensor_.mode == fault::SensorMode::kDropout;
  }

  /// The temperature the controller sees (temp-sensor override applied).
  [[nodiscard]] util::Celsius sensed_temperature() const;

  /// Stale-report bookkeeping for the controller's degraded mode: ticks
  /// since the last usable demand observation, and what that observation
  /// was (the last-known-good value the fallback decays from).
  [[nodiscard]] long stale_ticks() const { return stale_ticks_; }
  [[nodiscard]] Watts last_good_demand() const { return last_good_demand_; }
  [[nodiscard]] bool has_last_good_demand() const { return have_last_good_; }
  void note_fresh_observation(Watts d) {
    last_good_demand_ = d;
    have_last_good_ = true;
    stale_ticks_ = 0;
  }
  void note_lost_observation() { ++stale_ticks_; }

  /// Actual electrical draw under the node's current budget.
  [[nodiscard]] Watts consumed_power(Watts budget) const;

  /// Utilization in [0,1]: served dynamic power / dynamic range.
  [[nodiscard]] double utilization(Watts budget) const;

 private:
  NodeId node_;
  thermal::ThermalModel thermal_;
  power::ServerPowerModel power_model_;
  Watts circuit_limit_;
  std::vector<Application> apps_;
  /// Expiring temporary demands: (watts, remaining periods).
  std::vector<std::pair<Watts, int>> temp_;
  Watts temp_demand_{0.0};
  Watts cached_app_demand_{0.0};
  bool app_demand_valid_ = false;
  bool asleep_ = false;
  bool report_fault_ = false;
  bool crashed_ = false;
  fault::SensorOverride power_sensor_{};
  fault::SensorOverride temp_sensor_{};
  long stale_ticks_ = 0;
  Watts last_good_demand_{0.0};
  bool have_last_good_ = false;
};

class Cluster {
 public:
  /// @param smoothing_alpha Eq. (4) alpha for every PMU node.
  explicit Cluster(double smoothing_alpha = 0.7);

  [[nodiscard]] hier::Tree& tree() { return tree_; }
  [[nodiscard]] const hier::Tree& tree() const { return tree_; }

  /// Build the hierarchy: root, internal PMU groups, then servers as leaves.
  NodeId add_root(std::string name);
  NodeId add_group(NodeId parent, std::string name,
                   hier::NodeKind kind = hier::NodeKind::kRack);
  NodeId add_server(NodeId parent, std::string name, const ServerConfig& cfg);

  /// The dense server index: handle resolution, NodeId <-> slot mapping and
  /// subtree spans.  The arena's slot order is server-creation order and is
  /// the index space of server_at().
  [[nodiscard]] const ServerArena& arena() const { return arena_; }
  [[nodiscard]] ServerArena& arena() { return arena_; }

  /// Handle for the server at PMU leaf `id` (invalid handle if not a server).
  [[nodiscard]] ServerHandle handle(NodeId id) const { return arena_.find(id); }
  /// Generation-checked handle access (throws std::out_of_range on a stale
  /// or invalid handle).
  [[nodiscard]] ManagedServer& server(ServerHandle h) {
    return servers_[arena_.checked_slot(h)];
  }
  [[nodiscard]] const ManagedServer& server(ServerHandle h) const {
    return servers_[arena_.checked_slot(h)];
  }
  [[nodiscard]] NodeId node_of(ServerHandle h) const {
    return arena_.node_of(arena_.checked_slot(h));
  }

  [[nodiscard]] const std::vector<NodeId>& server_ids() const {
    return arena_.nodes();
  }
  /// DEPRECATED NodeId entry points (thin shims over the arena, kept for one
  /// release — see DESIGN.md §8): prefer handle()/server(ServerHandle) or
  /// slot-based server_at() on hot paths.
  [[nodiscard]] ManagedServer& server(NodeId id);
  [[nodiscard]] const ManagedServer& server(NodeId id) const;
  [[nodiscard]] bool is_server(NodeId id) const;

  /// Index-based access in server-creation order (== server_ids() order);
  /// the sharded tick phases address servers by index to avoid the id hash
  /// lookup on every touch.
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] ManagedServer& server_at(std::size_t i) { return servers_[i]; }
  [[nodiscard]] const ManagedServer& server_at(std::size_t i) const {
    return servers_[i];
  }

  /// Place a new application on a server.
  void place(Application app, NodeId server);

  /// Locate an application; returns the hosting server's handle (invalid
  /// handle when unknown).
  [[nodiscard]] ServerHandle host_handle_of(AppId app) const;
  /// DEPRECATED shim: hosting server's PMU leaf, or kNoNode.
  [[nodiscard]] NodeId host_of(AppId app) const;
  [[nodiscard]] Application* find_app(AppId app);
  [[nodiscard]] const Application* find_app(AppId app) const;

  /// Move an application between servers (placement only; cost/traffic
  /// accounting is the controller's job).  Throws if not hosted on `from`.
  void move_app(AppId app, NodeId from, NodeId to);

  /// Remove an application entirely (workload departure/churn); returns the
  /// removed instance.  Throws if unknown.
  Application remove_app(AppId app);

  /// Sleep/wake a server, keeping the PMU node's active flag in sync.
  void sleep_server(NodeId id);
  void wake_server(NodeId id);

  /// Crash/restore a server (fault injection).  Unlike sleep, a crash is
  /// legal with applications on board: they stay placed (denied service
  /// while down) and resume seamlessly on restore.  The PMU leaf goes
  /// inactive so the subtree aggregation excludes the dark node; callers
  /// must also tell the controller (note_availability_change) so the
  /// incremental plane re-dirties.
  void crash_server(NodeId id);
  void restore_server(NodeId id);

  /// Power-circuit rating of an internal node (rack/zone feed) — the
  /// "under-designed rack power circuits" lean-design scenario of Sec. I.
  /// The node's hard limit becomes min(sum of children, this rating).
  void set_group_circuit_limit(NodeId group, Watts limit);
  /// Rating if one was set; nullopt means "feed never binds".
  [[nodiscard]] std::optional<Watts> group_circuit_limit(NodeId group) const;

  /// Refresh all application demands for one period; `intensity` scales the
  /// means (demand-side variation, Sec. I).  Sequential form: one shared
  /// generator, draw order = server order.
  void refresh_demands(const workload::PoissonDemand& process, util::Rng& rng,
                       double intensity = 1.0);
  /// Per-server piggyback hook for the fused tick fan-out: called with the
  /// server index inside the sharded region, after that server's own work.
  /// The hook must follow the sharded-phase rules (touch only server i's
  /// state / slot i of pre-sized vectors; no bus emit()).
  using PerServerHook = std::function<void(std::size_t)>;

  /// Streamed form for the parallel tick engine: server i draws from the
  /// counter-based stream (seed, tick, i, kDemand), so results are
  /// bit-identical for any thread count (including pool == nullptr, which
  /// runs serially over the same streams).  `per_server`, if non-null, runs
  /// for each server after its refresh — the tick engine fuses report-fault
  /// sampling and traffic accounting into this batch instead of paying two
  /// more fan-outs.
  void refresh_demands(const workload::PoissonDemand& process,
                       std::uint64_t seed, long tick, double intensity,
                       util::ThreadPool* pool,
                       const PerServerHook* per_server = nullptr);
  void refresh_demands_constant();
  /// Deterministic (constant-demand) counterpart of the streamed refresh:
  /// each app's demand becomes its intensity-scaled effective mean, with the
  /// same sharding, demand-cache deposit and per-server kDemandReport
  /// emission as the Poisson form.  Used when the scenario's demand quantum
  /// is 0 (no sampling noise — the steady-state regime the incremental
  /// control plane exploits).
  void refresh_demands_deterministic(double intensity, util::ThreadPool* pool,
                                     const PerServerHook* per_server = nullptr);

  /// Push each server's power_demand() into its PMU leaf (observe_demand).
  void observe_leaf_demands();

  /// Advance thermal state of every server by dt under its consumed power.
  /// Sharded over `pool` (serial when null): per-server state only, so any
  /// partition of the server range yields identical results; budgets are
  /// read, never written.  `per_server`, if non-null, runs for each server
  /// after its step — the tick engine fuses per-server metric recording into
  /// this batch on recorded ticks.
  void step_thermal(Seconds dt, util::ThreadPool* pool = nullptr,
                    const PerServerHook* per_server = nullptr);

  /// Expire aged temporary migration demands (call once per demand period).
  void age_temporary_demands();

  /// Total consumed electrical power of all servers right now.
  [[nodiscard]] Watts total_consumed() const;

  /// Count of active (non-sleeping) servers.
  [[nodiscard]] std::size_t active_server_count() const;

  /// Attach an observability bus (not owned; may be null); also attached to
  /// the PMU tree.  The streamed refresh_demands deposits one kDemandReport
  /// per server through the bus's per-shard staging, so the merged stream is
  /// bit-identical for any thread count.
  void set_event_bus(obs::EventBus* bus) {
    bus_ = bus;
    tree_.set_event_bus(bus);
  }
  [[nodiscard]] obs::EventBus* event_bus() const { return bus_; }

 private:
  /// The body both streamed refreshes share: for each server, call
  /// refresh_apps(i, apps), deposit the demand cache, emit the server's
  /// kDemandReport into its shard slot, then run `per_server`.
  template <typename RefreshApps>
  void refresh_sharded(const RefreshApps& refresh_apps, util::ThreadPool* pool,
                       const PerServerHook* per_server);

  hier::Tree tree_;
  ServerArena arena_;                   ///< slot/handle index; see arena.h
  std::vector<ManagedServer> servers_;  ///< payload, parallel to arena slots
  std::unordered_map<AppId, ServerHandle> app_host_;
  std::unordered_map<NodeId, Watts> group_circuit_limits_;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace willow::core
