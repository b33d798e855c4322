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

void ManagedServer::age_temporary_list() {
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
  arena_.add(id);
  servers_.emplace_back(id, cfg);
  return id;
}

ManagedServer& Cluster::server(NodeId id) {
  return servers_[arena_.checked_slot_of(id)];
}

const ManagedServer& Cluster::server(NodeId id) const {
  return servers_[arena_.checked_slot_of(id)];
}

bool Cluster::is_server(NodeId id) const {
  return arena_.slot_of(id) != ServerArena::kNoSlot;
}

void Cluster::place(Application app, NodeId server_id) {
  if (app_host_.contains(app.id())) {
    throw std::logic_error("Cluster::place: application already placed");
  }
  const ServerHandle h = arena_.find(server_id);
  auto& s = server(h);  // throws on a non-server target
  app_host_[app.id()] = h;
  s.apps().push_back(std::move(app));
  s.invalidate_app_demand_cache();
}

ServerHandle Cluster::host_handle_of(AppId app) const {
  auto it = app_host_.find(app);
  return it == app_host_.end() ? ServerHandle{} : it->second;
}

NodeId Cluster::host_of(AppId app) const {
  const ServerHandle h = host_handle_of(app);
  return h.valid() ? node_of(h) : hier::kNoNode;
}

Application* Cluster::find_app(AppId app) {
  const ServerHandle h = host_handle_of(app);
  if (!h.valid()) return nullptr;
  for (auto& a : server(h).apps()) {
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
  app_host_[app] = arena_.find(to);
  server(from).invalidate_app_demand_cache();
  server(to).invalidate_app_demand_cache();
}

Application Cluster::remove_app(AppId app) {
  const ServerHandle h = host_handle_of(app);
  if (!h.valid()) {
    throw std::logic_error("Cluster::remove_app: unknown application");
  }
  auto& apps = server(h).apps();
  auto it = std::find_if(apps.begin(), apps.end(),
                         [&](const Application& a) { return a.id() == app; });
  Application removed = std::move(*it);
  apps.erase(it);
  app_host_.erase(app);
  server(h).invalidate_app_demand_cache();
  return removed;
}

void Cluster::sleep_server(NodeId id) {
  auto& s = server(id);
  if (!s.apps().empty()) {
    throw std::logic_error("Cluster::sleep_server: server still hosts apps");
  }
  s.set_asleep(true);
  tree_.node(id).set_active(false);
}

void Cluster::wake_server(NodeId id) {
  server(id).set_asleep(false);
  tree_.node(id).set_active(true);
}

void Cluster::crash_server(NodeId id) {
  auto& s = server(id);
  s.set_crashed(true);
  tree_.node(id).set_active(false);
}

void Cluster::restore_server(NodeId id) {
  auto& s = server(id);
  s.set_crashed(false);
  tree_.node(id).set_active(s.asleep() ? false : true);
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
  for (auto& s : servers_) {
    process.refresh_all(s.apps(), rng, intensity);
    s.set_cached_app_demand(workload::total_demand(s.apps()));
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
  for (auto& s : servers_) {
    workload::ConstantDemand::refresh_all(s.apps());
    s.set_cached_app_demand(workload::total_demand(s.apps()));
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
  for (auto& s : servers_) {
    // A crashed server is dark: its leaf is inactive (the sweep feeds the
    // subtree 0) and no reading arrives until restore.
    if (s.crashed()) {
      s.note_lost_observation();
      continue;
    }
    // A lost report (or power-sensor dropout) leaves the leaf acting on its
    // previous observation; the controller's stale-timeout fallback decides
    // what to do once the silence lasts (docs/fault_model.md).
    if (s.demand_reading_lost()) {
      s.note_lost_observation();
      continue;
    }
    // observe_leaf carries the incremental fast path (bitwise-unchanged
    // observation into a settled EWMA is a no-op).  A stuck/biased sensor
    // still counts as a fresh observation — a report arrived, it is just
    // wrong — so staleness tracks silence, not accuracy.
    const Watts seen = s.sensed_demand();
    s.note_fresh_observation(seen);
    tree_.observe_leaf(s.node(), seen);
  }
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

void Cluster::age_temporary_demands() {
  for (auto& s : servers_) s.age_temporary_demand();
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
