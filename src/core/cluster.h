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

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "hier/tree.h"
#include "obs/bus.h"
#include "power/server_power.h"
#include "thermal/thermal_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/units.h"
#include "workload/application.h"
#include "workload/demand.h"
#include "workload/mix.h"

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

  /// Idle draw while active (reported as part of demand).
  [[nodiscard]] Watts idle_floor() const {
    return power_model_.static_power();
  }

  /// Temporary extra power demand from in-flight migrations (Sec. IV-E:
  /// "This cost is added as a temporary power demand to the nodes involved").
  [[nodiscard]] Watts temporary_demand() const { return temp_demand_; }
  /// Whether some temporary demand is still waiting to expire (it may sum to
  /// 0 W).  Added and aged through Cluster, which lists the holders.
  [[nodiscard]] bool has_temporary_demand() const { return !temp_.empty(); }

  /// What this server reports up the tree: 0 when asleep, otherwise
  /// idle floor + live application demand + temporary migration demand.
  [[nodiscard]] Watts power_demand() const {
    if (asleep_ || crashed_) return Watts{0.0};
    const Watts apps = app_demand_valid_ ? cached_app_demand_
                                         : workload::total_demand(apps_);
    return idle_floor() + apps + temp_demand_;
  }

  /// Crashed: the server is down hard (no demand, no consumption, apps
  /// denied) until restarted.  Unlike sleep, a crash keeps the hosted
  /// applications in place — they resume when the server comes back.
  [[nodiscard]] bool crashed() const { return crashed_; }

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
  /// The server's hard limit as the controller senses it: min(circuit
  /// rating, thermal power limit over `window`), the thermal part derived
  /// through the temp-sensor override.
  [[nodiscard]] Watts sensed_power_limit(Seconds window) const;

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
  void note_observation_lost() { ++stale_ticks_; }

  /// Actual electrical draw under the node's current budget.
  [[nodiscard]] Watts consumed_power(Watts budget) const {
    if (asleep_ || crashed_) return Watts{0.0};
    return util::min(power_demand(), util::max(budget, idle_floor()));
  }

  /// Utilization in [0,1]: served dynamic power / dynamic range.
  [[nodiscard]] double utilization(Watts budget) const;

 private:
  // The mutators below move what the controller observes, so only Cluster
  // calls them: it records the server's slot in its InputRecord.
  friend class Cluster;
  void set_asleep(bool a) { asleep_ = a; }
  void set_crashed(bool c) { crashed_ = c; }
  /// Fault injection: while set, the server's demand report is lost — the
  /// PMU leaf keeps acting on its previous observation (stale CP).  Models
  /// the measurement/communication failures the convergence analysis
  /// (Sec. V-A1) assumes away.
  void set_report_fault(bool faulty) { report_fault_ = faulty; }
  /// Application-demand sum cache: the demand refresh loops deposit the
  /// freshly summed live demand here so power_demand() — called several
  /// times per tick by observation, consumption and packing — is O(1)
  /// instead of O(apps).  Every mutation of the hosted set or of an
  /// individual app's demand/dropped state outside the refresh loops must
  /// invalidate it (Cluster's placement ops and invalidate_app_demand do).
  /// An invalid cache only costs the O(apps) fallback.
  void set_cached_app_demand(Watts w) {
    cached_app_demand_ = w;
    app_demand_valid_ = true;
  }
  void invalidate_app_demand_cache() { app_demand_valid_ = false; }
  /// Add `w` of temporary demand that expires after `periods` demand periods.
  void add_temporary_demand(Watts w, int periods);
  /// Advance one demand period: expire aged temporary demand.
  void age_temporary_demand();

  // What power_demand() and consumed_power() read fills the first 32 bytes
  // (the power model's static power first); the thermal state follows.  The
  // class is not over-aligned: aligning the fleet vector raised
  // settled_10k's peak RSS by about 1.7 MB (allocator fragmentation across
  // repetitions).
  NodeId node_;
  bool asleep_ = false;
  bool crashed_ = false;
  bool app_demand_valid_ = false;
  bool report_fault_ = false;
  Watts temp_demand_{0.0};
  Watts cached_app_demand_{0.0};
  power::ServerPowerModel power_model_;
  fault::SensorOverride power_sensor_{};
  Watts circuit_limit_;
  thermal::ThermalModel thermal_;
  fault::SensorOverride temp_sensor_{};
  long stale_ticks_ = 0;
  Watts last_good_demand_{0.0};
  bool have_last_good_ = false;
  std::vector<Application> apps_;
  /// Expiring temporary demands: (watts, remaining periods).
  std::vector<std::pair<Watts, int>> temp_;
};

/// The two typed per-server hook shapes; see Cluster::PerServerHook.
template <typename F>
concept RefreshHook = std::invocable<const F&, std::size_t>;
template <typename F>
concept ThermalHook =
    std::invocable<const F&, std::size_t, const hier::Node&, Watts>;

/// Which servers' controller inputs moved since each controller pass last
/// looked (DESIGN.md §10, "settled tick").  One byte per server slot and one
/// bit per consuming pass: a writer sets every bit, and each pass drains
/// only its own, so passes on different cadences keep their own "since"
/// point.  Distinct slots are distinct bytes, so the sharded batches record
/// their own slots without synchronisation.
class InputRecord {
 public:
  static constexpr std::uint8_t kAll = 0xff;

  void add_slot() { bits_.push_back(kAll); }
  [[nodiscard]] std::size_t size() const { return bits_.size(); }
  void mark(std::size_t slot, std::uint8_t passes = kAll) {
    bits_[slot] |= passes;
  }
  void mark_all(std::uint8_t passes) {
    for (auto& b : bits_) b |= passes;
  }
  [[nodiscard]] bool marked(std::size_t slot, std::uint8_t pass) const {
    return (bits_[slot] & pass) != 0;
  }
  /// Clear `pass` on every slot that holds it and call visit(slot) for each,
  /// in ascending slot order.  A visit may re-mark its own slot for the next
  /// drain.  Unmarked slots cost one test per eight.
  template <typename Visit>
  void drain(std::uint8_t pass, const Visit& visit) {
    const std::uint64_t lanes = 0x0101010101010101ull * pass;
    const std::size_t n = bits_.size();
    for (std::size_t base = 0; base < n; base += 8) {
      const std::size_t len = std::min<std::size_t>(8, n - base);
      std::uint64_t word = 0;
      std::memcpy(&word, bits_.data() + base, len);
      if ((word & lanes) == 0) continue;
      for (std::size_t i = base; i < base + len; ++i) {
        if ((bits_[i] & pass) == 0) continue;
        bits_[i] &= static_cast<std::uint8_t>(~pass);
        visit(i);
      }
    }
  }

 private:
  std::vector<std::uint8_t> bits_;
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

  /// Every server occupies one *slot*: a dense index in creation order,
  /// which is ascending NodeId and the index space of server_at().
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// The servers' PMU leaves by slot.
  [[nodiscard]] const std::vector<NodeId>& server_ids() const {
    return server_ids_;
  }
  /// The slot of the server at PMU leaf `id`, or kNoSlot for a non-server.
  [[nodiscard]] std::uint32_t slot_of(NodeId id) const {
    return id < slot_of_node_.size() ? slot_of_node_[id] : kNoSlot;
  }
  /// The server at PMU leaf `id` (std::out_of_range if `id` is not a
  /// server); hot paths use slot-based server_at() instead.
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

  /// The controller-input record (see InputRecord).  Every Cluster method
  /// that moves what the controller observes of a server records its slot:
  /// placement, sleep/wake, crash/restore, the setters below, the demand
  /// refresh (app-demand sum or cache validity changed bitwise) and the
  /// thermal step (temperature changed bitwise).  A caller that mutates a
  /// server through server()/thermal() must record it, as
  /// Controller::note_external_change does.
  [[nodiscard]] InputRecord& input_record() { return record_; }
  [[nodiscard]] const InputRecord& input_record() const { return record_; }
  /// Record that server `id`'s inputs moved, for the given passes (no-op
  /// for a non-server).
  void note_input_moved(NodeId id,
                        std::uint8_t passes = InputRecord::kAll) {
    const std::uint32_t slot = slot_of(id);
    if (slot != kNoSlot) record_.mark(slot, passes);
  }

  /// Recording setters for the server at PMU leaf `id`.
  void set_report_fault(NodeId id, bool faulty);
  void set_temperature(NodeId id, util::Celsius t);
  void set_ambient(NodeId id, util::Celsius ambient);
  /// Add `w` of temporary demand that expires after `periods` demand
  /// periods (Sec. IV-E migration cost).
  void add_temporary_demand(NodeId id, Watts w, int periods);
  /// Drop the server's app-demand cache after its apps' demand or dropped
  /// state changed in place.
  void invalidate_app_demand(NodeId id);

  /// Locate an application: its hosting server's PMU leaf, or kNoNode.
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
  /// Per-server piggyback hooks for the fused tick fan-out.  The sharded
  /// sweeps below take them as a template parameter, so a lambda is called
  /// directly, with no type erasure per server:
  ///  * the demand refreshes call `hook(i)` after server i's refresh;
  ///  * step_thermal calls `hook(i, leaf, consumed)` after server i's step,
  ///    with its PMU leaf and the power the step charged, so the hook does not
  ///    look either up again.
  /// A hook must follow the sharded-phase rules: touch only server i's state
  /// or slot i of pre-sized vectors, and emit nothing on the bus.
  ///
  /// PerServerHook is the type-erased form, kept for callers outside the
  /// tick engine: the `const PerServerHook*` overloads wrap the typed sweeps.
  using PerServerHook = std::function<void(std::size_t)>;

  /// Streamed form for the parallel tick engine: server i draws from the
  /// counter-based stream (seed, tick, i, kDemand), so results are
  /// bit-identical for any thread count (including pool == nullptr, which
  /// runs serially over the same streams).  `per_server` runs for each
  /// server after its refresh — the tick engine fuses report-fault sampling
  /// and traffic accounting into this batch instead of paying two more
  /// fan-outs.
  template <RefreshHook Hook>
  void refresh_demands(const workload::PoissonDemand& process,
                       std::uint64_t seed, long tick, double intensity,
                       util::ThreadPool* pool, const Hook& per_server) {
    const util::TickStreams streams(seed, static_cast<std::uint64_t>(tick));
    refresh_sharded(
        [&](std::size_t i, std::vector<Application>& apps) {
          auto rng = streams(i, util::stream_phase::kDemand);
          process.refresh_all(apps, rng, intensity);
        },
        pool, per_server);
  }
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
  template <RefreshHook Hook>
  void refresh_demands_deterministic(double intensity, util::ThreadPool* pool,
                                     const Hook& per_server) {
    refresh_sharded(
        [&](std::size_t, std::vector<Application>& apps) {
          workload::ConstantDemand::refresh_all(apps, intensity);
        },
        pool, per_server);
  }
  void refresh_demands_deterministic(double intensity, util::ThreadPool* pool,
                                     const PerServerHook* per_server = nullptr);

  /// Push each server's power_demand() into its PMU leaf (observe_demand).
  void observe_leaf_demands();
  /// The same for the server at `slot` alone.  Returns whether the server
  /// is not yet quiet: observing it again with no input moved could still
  /// change something (its leaf's EWMA has not settled, its reading is lost
  /// or stale, it is crashed, or its app-demand cache is invalid).
  bool observe_leaf(std::size_t slot);
  /// Whether observe_leaf(slot) would change any state now (shadow checks).
  [[nodiscard]] bool observation_would_act(std::size_t slot) const;

  /// Advance thermal state of every server by dt under its consumed power.
  /// Sharded over `pool` (serial when null): per-server state only, so any
  /// partition of the server range yields identical results; budgets are
  /// read, never written.  `per_server` runs for each server after its step
  /// — the tick engine fuses per-server metric recording into this batch on
  /// recorded ticks.
  template <ThermalHook Hook>
  void step_thermal(Seconds dt, util::ThreadPool* pool,
                    const Hook& per_server) {
    const auto body = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        auto& s = servers_[i];
        const hier::Node& leaf = tree_.node(s.node());
        const Watts consumed = s.consumed_power(leaf.budget());
        const double before = s.thermal().temperature().value();
        s.thermal().step(consumed, dt);
        if (std::bit_cast<std::uint64_t>(before) !=
            std::bit_cast<std::uint64_t>(s.thermal().temperature().value())) {
          record_.mark(i);
        }
        per_server(i, leaf, consumed);
      }
    };
    // By reference: the batch's std::function then holds a pointer and
    // allocates nothing.
    util::parallel_for_ranges(pool, servers_.size(), std::cref(body));
  }
  void step_thermal(Seconds dt, util::ThreadPool* pool = nullptr,
                    const PerServerHook* per_server = nullptr);

  /// Expire aged temporary migration demands (call once per demand period).
  /// Visits the servers that hold some; `full_walk` visits every server.
  void age_temporary_demands(bool full_walk = false);
  /// Whether every server holding temporary demand is on the list aging
  /// walks, i.e. whether that walk ages what the full walk would (shadow
  /// checks).
  [[nodiscard]] bool temporary_demand_holders_complete() const;

  /// Total consumed electrical power of all servers right now, summed in
  /// slot order.
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

 private:
  /// As slot_of, but throws std::out_of_range for a non-server.
  [[nodiscard]] std::uint32_t checked_slot_of(NodeId id) const;

  /// The body both streamed refreshes share: for each server, call
  /// refresh_apps(i, apps), deposit the demand cache, emit the server's
  /// kDemandReport into its shard slot, then run `per_server`.
  template <typename RefreshApps, typename Hook>
  void refresh_sharded(const RefreshApps& refresh_apps, util::ThreadPool* pool,
                       const Hook& per_server) {
    // The one tick phase that emits from inside a sharded region: each
    // server's fresh demand becomes a kDemandReport deposited into the
    // per-server shard slot; end_shards() merges them in server order so the
    // trace is identical no matter how the range was partitioned.
    const bool observe = bus_ != nullptr && bus_->enabled();
    if (observe) bus_->begin_shards(servers_.size());
    const auto body = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        auto& s = servers_[i];
        refresh_apps(i, s.apps());
        deposit_app_demand(i);
        if (observe && !s.asleep() && !s.crashed()) {
          obs::Event e;
          e.type = obs::EventType::kDemandReport;
          e.node = s.node();
          e.value = s.power_demand().value();
          bus_->emit_shard(i, std::move(e));
        }
        per_server(i);
      }
    };
    util::parallel_for_ranges(pool, servers_.size(), std::cref(body));
    if (observe) bus_->end_shards();
  }

  /// Cache server i's freshly summed app demand, recording the slot when
  /// the sum or the cache's validity changed bitwise.
  void deposit_app_demand(std::size_t i) {
    auto& s = servers_[i];
    const double before = s.cached_app_demand_.value();
    const bool was_valid = s.app_demand_valid_;
    s.set_cached_app_demand(workload::total_demand(s.apps()));
    if (!was_valid || std::bit_cast<std::uint64_t>(before) !=
                          std::bit_cast<std::uint64_t>(
                              s.cached_app_demand_.value())) {
      record_.mark(i);
    }
  }

  hier::Tree tree_;
  std::vector<NodeId> server_ids_;            ///< slot -> PMU leaf
  std::vector<std::uint32_t> slot_of_node_;  ///< NodeId -> slot or kNoSlot
  std::vector<ManagedServer> servers_;       ///< by slot
  InputRecord record_;                       ///< by slot
  /// Slots of the servers holding temporary demand, in no fixed order.
  std::vector<std::uint32_t> temp_holders_;
  std::unordered_map<AppId, std::uint32_t> app_host_;  ///< app -> slot
  std::unordered_map<NodeId, Watts> group_circuit_limits_;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace willow::core
