#include "core/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace willow::core {

ManagedServer::ManagedServer(NodeId node, const ServerConfig& cfg)
    : node_(node),
      power_model_(cfg.power_model),
      circuit_limit_(cfg.circuit_limit.value_or(cfg.thermal.nameplate)),
      thermal_(cfg.thermal) {}

void ManagedServer::add_temporary_demand(Watts w, int periods) {
  if (w.value() < 0.0 || periods <= 0) {
    throw std::invalid_argument("add_temporary_demand: bad arguments");
  }
  temp_.emplace_back(w, periods);
  temp_demand_ += w;
}

void ManagedServer::age_temporary_demand() {
  if (temp_.empty()) return;
  Watts remaining{0.0};
  auto keep = temp_.begin();
  for (auto& [w, periods] : temp_) {
    if (--periods > 0) {
      *keep++ = {w, periods};
      remaining += w;
    }
  }
  temp_.erase(keep, temp_.end());
  temp_demand_ = remaining;
}

Watts ManagedServer::sensed_demand() const {
  const Watts actual = power_demand();
  switch (power_sensor_.mode) {
    case fault::SensorMode::kStuck:
      return Watts{power_sensor_.param < 0.0 ? 0.0 : power_sensor_.param};
    case fault::SensorMode::kBias:
      return util::max(Watts{0.0}, actual + Watts{power_sensor_.param});
    case fault::SensorMode::kOk:
    case fault::SensorMode::kDropout:
      break;
  }
  return actual;
}

util::Celsius ManagedServer::sensed_temperature() const {
  const util::Celsius actual = thermal_.temperature();
  switch (temp_sensor_.mode) {
    case fault::SensorMode::kStuck:
      return util::Celsius{temp_sensor_.param};
    case fault::SensorMode::kBias:
      return actual + util::Celsius{temp_sensor_.param};
    case fault::SensorMode::kOk:
    case fault::SensorMode::kDropout:
      break;
  }
  return actual;
}

Watts ManagedServer::sensed_power_limit(Seconds window) const {
  Watts thermal_limit{0.0};
  switch (temp_sensor_.mode) {
    case fault::SensorMode::kOk:
      thermal_limit = thermal_.power_limit(window);
      break;
    case fault::SensorMode::kDropout: {
      // Known-missing reading: fail safe to the steady-state envelope,
      // which keeps T <= T_limit from *any* starting temperature — the
      // conservative choice when the controller is blind.
      const Watts ss = thermal_.steady_state_power_limit();
      thermal_limit = util::min(util::positive_part(ss),
                                thermal_.params().nameplate);
      break;
    }
    case fault::SensorMode::kStuck:
    case fault::SensorMode::kBias:
      // The controller believes the lying sensor — that is the fault being
      // modeled.  A stuck-low sensor over-budgets a hot server; the plant
      // keeps evolving on the true temperature.
      thermal_limit = thermal::power_limit_from(
          thermal_.params(), sensed_temperature(), window);
      break;
  }
  return util::min(circuit_limit_, thermal_limit);
}

double ManagedServer::utilization(Watts budget) const {
  if (asleep_ || crashed_) return 0.0;
  const Watts dynamic = consumed_power(budget) - idle_floor();
  const Watts range = power_model_.dynamic_range();
  if (range.value() <= 0.0) return 0.0;
  return std::clamp(dynamic / range, 0.0, 1.0);
}

Cluster::Cluster(double smoothing_alpha) : tree_(smoothing_alpha) {}

NodeId Cluster::add_root(std::string name) {
  return tree_.add_root(std::move(name), hier::NodeKind::kDatacenter);
}

NodeId Cluster::add_group(NodeId parent, std::string name, hier::NodeKind kind) {
  return tree_.add_child(parent, std::move(name), kind);
}

NodeId Cluster::add_server(NodeId parent, std::string name,
                           const ServerConfig& cfg) {
  const NodeId id =
      tree_.add_child(parent, std::move(name), hier::NodeKind::kServer);
  // A fresh leaf: its id is past every slot_of_node_ entry so far.
  slot_of_node_.resize(static_cast<std::size_t>(id) + 1, kNoSlot);
  slot_of_node_[id] = static_cast<std::uint32_t>(server_ids_.size());
  server_ids_.push_back(id);
  servers_.emplace_back(id, cfg);
  record_.add_slot();
  return id;
}

std::uint32_t Cluster::checked_slot_of(NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) {
    throw std::out_of_range("Cluster: node is not a server");
  }
  return slot;
}

ManagedServer& Cluster::server(NodeId id) {
  return servers_[checked_slot_of(id)];
}

const ManagedServer& Cluster::server(NodeId id) const {
  return servers_[checked_slot_of(id)];
}

bool Cluster::is_server(NodeId id) const {
  return slot_of(id) != kNoSlot;
}

void Cluster::place(Application app, NodeId server_id) {
  if (app_host_.contains(app.id())) {
    throw std::logic_error("Cluster::place: application already placed");
  }
  // Throws std::out_of_range on a non-server target.
  const std::uint32_t slot = checked_slot_of(server_id);
  auto& s = servers_[slot];
  app_host_[app.id()] = slot;
  s.apps().push_back(std::move(app));
  s.invalidate_app_demand_cache();
  record_.mark(slot);
}

NodeId Cluster::host_of(AppId app) const {
  auto it = app_host_.find(app);
  return it == app_host_.end() ? hier::kNoNode : server_ids_[it->second];
}

Application* Cluster::find_app(AppId app) {
  auto it = app_host_.find(app);
  if (it == app_host_.end()) return nullptr;
  for (auto& a : servers_[it->second].apps()) {
    if (a.id() == app) return &a;
  }
  return nullptr;
}

const Application* Cluster::find_app(AppId app) const {
  return const_cast<Cluster*>(this)->find_app(app);
}

void Cluster::move_app(AppId app, NodeId from, NodeId to) {
  auto& src = server(from).apps();
  auto it = std::find_if(src.begin(), src.end(),
                         [&](const Application& a) { return a.id() == app; });
  if (it == src.end()) {
    throw std::logic_error("Cluster::move_app: app not hosted on source");
  }
  Application moving = std::move(*it);
  src.erase(it);
  server(to).apps().push_back(std::move(moving));
  app_host_[app] = slot_of(to);
  invalidate_app_demand(from);
  invalidate_app_demand(to);
}

Application Cluster::remove_app(AppId app) {
  const auto host = app_host_.find(app);
  if (host == app_host_.end()) {
    throw std::logic_error("Cluster::remove_app: unknown application");
  }
  const std::uint32_t slot = host->second;
  app_host_.erase(host);
  auto& apps = servers_[slot].apps();
  auto it = std::find_if(apps.begin(), apps.end(),
                         [&](const Application& a) { return a.id() == app; });
  Application removed = std::move(*it);
  apps.erase(it);
  servers_[slot].invalidate_app_demand_cache();
  record_.mark(slot);
  return removed;
}

void Cluster::sleep_server(NodeId id) {
  auto& s = server(id);
  if (!s.apps().empty()) {
    throw std::logic_error("Cluster::sleep_server: server still hosts apps");
  }
  s.set_asleep(true);
  tree_.node(id).set_active(false);
  note_input_moved(id);
}

void Cluster::wake_server(NodeId id) {
  server(id).set_asleep(false);
  tree_.node(id).set_active(true);
  note_input_moved(id);
}

void Cluster::crash_server(NodeId id) {
  auto& s = server(id);
  s.set_crashed(true);
  tree_.node(id).set_active(false);
  note_input_moved(id);
}

void Cluster::restore_server(NodeId id) {
  auto& s = server(id);
  s.set_crashed(false);
  tree_.node(id).set_active(s.asleep() ? false : true);
  note_input_moved(id);
}

void Cluster::set_report_fault(NodeId id, bool faulty) {
  auto& s = server(id);
  if (s.report_fault_ == faulty) return;
  s.set_report_fault(faulty);
  note_input_moved(id);
}

void Cluster::set_temperature(NodeId id, util::Celsius t) {
  server(id).thermal().set_temperature(t);
  note_input_moved(id);
}

void Cluster::set_ambient(NodeId id, util::Celsius ambient) {
  server(id).thermal().set_ambient(ambient);
  note_input_moved(id);
}

void Cluster::add_temporary_demand(NodeId id, Watts w, int periods) {
  const std::uint32_t slot = checked_slot_of(id);
  auto& s = servers_[slot];
  const bool held = s.has_temporary_demand();
  s.add_temporary_demand(w, periods);
  if (!held) temp_holders_.push_back(slot);
  record_.mark(slot);
}

void Cluster::invalidate_app_demand(NodeId id) {
  const std::uint32_t slot = checked_slot_of(id);
  servers_[slot].invalidate_app_demand_cache();
  record_.mark(slot);
}

void Cluster::set_group_circuit_limit(NodeId group, Watts limit) {
  if (is_server(group) || tree_.node(group).is_leaf()) {
    throw std::invalid_argument(
        "set_group_circuit_limit: node is not an internal group");
  }
  if (limit.value() < 0.0) {
    throw std::invalid_argument("set_group_circuit_limit: negative rating");
  }
  group_circuit_limits_[group] = limit;
}

std::optional<Watts> Cluster::group_circuit_limit(NodeId group) const {
  auto it = group_circuit_limits_.find(group);
  if (it == group_circuit_limits_.end()) return std::nullopt;
  return it->second;
}

void Cluster::refresh_demands(const workload::PoissonDemand& process,
                              util::Rng& rng, double intensity) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    process.refresh_all(servers_[i].apps(), rng, intensity);
    deposit_app_demand(i);
  }
}

void Cluster::refresh_demands(const workload::PoissonDemand& process,
                              std::uint64_t seed, long tick, double intensity,
                              util::ThreadPool* pool,
                              const PerServerHook* per_server) {
  if (per_server == nullptr) {
    refresh_demands(process, seed, tick, intensity, pool, [](std::size_t) {});
  } else {
    refresh_demands(process, seed, tick, intensity, pool, *per_server);
  }
}

void Cluster::refresh_demands_constant() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    workload::ConstantDemand::refresh_all(servers_[i].apps());
    deposit_app_demand(i);
  }
}

void Cluster::refresh_demands_deterministic(double intensity,
                                            util::ThreadPool* pool,
                                            const PerServerHook* per_server) {
  if (per_server == nullptr) {
    refresh_demands_deterministic(intensity, pool, [](std::size_t) {});
  } else {
    refresh_demands_deterministic(intensity, pool, *per_server);
  }
}

void Cluster::observe_leaf_demands() {
  for (std::size_t i = 0; i < servers_.size(); ++i) observe_leaf(i);
}

bool Cluster::observe_leaf(std::size_t slot) {
  auto& s = servers_[slot];
  // A crashed server is dark: its leaf is inactive (the sweep feeds the
  // subtree 0) and no reading arrives until restore.  A lost report (or
  // power-sensor dropout) leaves the leaf acting on its previous
  // observation; the controller's stale-timeout fallback decides what to do
  // once the silence lasts (docs/fault_model.md).
  if (s.crashed() || s.demand_reading_lost()) {
    s.note_observation_lost();
    return true;
  }
  // observe_leaf carries the incremental fast path (bitwise-unchanged
  // observation into a settled EWMA is a no-op).  A stuck/biased sensor
  // still counts as a fresh observation — a report arrived, it is just
  // wrong — so staleness tracks silence, not accuracy.
  const Watts seen = s.sensed_demand();
  s.note_fresh_observation(seen);
  tree_.observe_leaf(s.node(), seen);
  return !tree_.node(s.node()).ewma_settled() || !s.app_demand_valid_;
}

bool Cluster::observation_would_act(std::size_t slot) const {
  const auto& s = servers_[slot];
  if (s.crashed() || s.demand_reading_lost() || s.stale_ticks() != 0 ||
      !s.has_last_good_demand()) {
    return true;
  }
  const auto bits = [](Watts w) { return std::bit_cast<std::uint64_t>(w); };
  const Watts seen = s.sensed_demand();
  const auto& leaf = tree_.node(s.node());
  return bits(seen) != bits(s.last_good_demand()) || !leaf.ewma_settled() ||
         bits(seen) != bits(leaf.raw_demand());
}

void Cluster::step_thermal(Seconds dt, util::ThreadPool* pool,
                           const PerServerHook* per_server) {
  if (per_server == nullptr) {
    step_thermal(dt, pool, [](std::size_t, const hier::Node&, Watts) {});
  } else {
    step_thermal(dt, pool, [per_server](std::size_t i, const hier::Node&,
                                        Watts) { (*per_server)(i); });
  }
}

void Cluster::age_temporary_demands(bool full_walk) {
  // Expiry moves power_demand(): record the slot when the sum changes.
  // Returns whether the server still holds some.
  const auto age = [this](std::size_t i) {
    auto& s = servers_[i];
    const Watts before = s.temporary_demand();
    s.age_temporary_demand();
    if (std::bit_cast<std::uint64_t>(before) !=
        std::bit_cast<std::uint64_t>(s.temporary_demand())) {
      record_.mark(i);
    }
    return s.has_temporary_demand();
  };
  if (full_walk) {
    for (std::size_t i = 0; i < servers_.size(); ++i) age(i);
    std::erase_if(temp_holders_, [this](std::uint32_t i) {
      return !servers_[i].has_temporary_demand();
    });
  } else {
    std::erase_if(temp_holders_, [&](std::uint32_t i) { return !age(i); });
  }
}

bool Cluster::temporary_demand_holders_complete() const {
  // The list's entries are distinct, so equal counts mean every holder is
  // listed.
  const auto holds = [this](std::size_t i) {
    return servers_[i].has_temporary_demand() ? 1u : 0u;
  };
  std::size_t listed = 0;
  for (const std::uint32_t i : temp_holders_) listed += holds(i);
  std::size_t holding = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) holding += holds(i);
  return listed == holding;
}

Watts Cluster::total_consumed() const {
  Watts total{0.0};
  for (const auto& s : servers_) {
    total += s.consumed_power(tree_.node(s.node()).budget());
  }
  return total;
}

std::size_t Cluster::active_server_count() const {
  std::size_t n = 0;
  for (const auto& s : servers_) n += s.asleep() ? 0 : 1;
  return n;
}

}  // namespace willow::core
