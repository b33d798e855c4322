#include "net/fabric.h"

#include <stdexcept>

namespace willow::net {

Fabric::Fabric(const hier::Tree& tree, FabricConfig config)
    : tree_(tree),
      config_(config),
      parent_(tree.size(), hier::kNoNode),
      group_index_(tree.size(), -1) {
  if (config_.redundancy == 0) {
    throw std::invalid_argument("Fabric: redundancy must be >= 1");
  }
  if (!(config_.switch_capacity > 0.0)) {
    throw std::invalid_argument("Fabric: switch_capacity must be > 0");
  }
  for (NodeId id : tree.all_nodes()) {
    parent_[id] = tree.node(id).parent();
    if (!tree.node(id).is_leaf()) {
      group_index_[id] = static_cast<int>(groups_.size());
      groups_.push_back(id);
      stats_.emplace_back();
    }
  }
}

std::vector<NodeId> Fabric::level1_groups() const {
  std::vector<NodeId> out;
  for (NodeId g : groups_) {
    for (NodeId c : tree_.node(g).children()) {
      if (tree_.node(c).is_leaf()) {
        out.push_back(g);
        break;
      }
    }
  }
  return out;
}

const GroupStats& Fabric::stats(NodeId group) const {
  const int idx = group_index_.at(group);
  if (idx < 0) throw std::out_of_range("Fabric: node has no switch group");
  return stats_[static_cast<std::size_t>(idx)];
}

GroupStats& Fabric::mutable_stats(NodeId group) {
  const int idx = group_index_.at(group);
  if (idx < 0) throw std::out_of_range("Fabric: node has no switch group");
  return stats_[static_cast<std::size_t>(idx)];
}

void Fabric::begin_period() {
  for (auto& s : stats_) {
    s.period_traffic = 0.0;
    s.period_migration_traffic = 0.0;
    s.period_flow_traffic = 0.0;
    s.period_migration_cost = Watts{0.0};
  }
}

void Fabric::add_server_traffic(NodeId server, double units) {
  if (!(units >= 0.0)) {
    throw std::invalid_argument("add_server_traffic: negative units");
  }
  if (server >= parent_.size()) {
    throw std::out_of_range("add_server_traffic: node outside the fabric");
  }
  // Every ancestor of a node the fabric was built over is an internal node
  // of that tree, so it has a group.
  for (NodeId cur = parent_[server]; cur != hier::kNoNode; cur = parent_[cur]) {
    auto& s = stats_[static_cast<std::size_t>(group_index_[cur])];
    s.period_traffic += units;
    s.total_traffic += units;
  }
}

NodeId Fabric::lca(NodeId a, NodeId b) const {
  // Walk the deeper node up until depths match, then climb together.
  NodeId x = a, y = b;
  while (tree_.node(x).depth() > tree_.node(y).depth()) x = tree_.node(x).parent();
  while (tree_.node(y).depth() > tree_.node(x).depth()) y = tree_.node(y).parent();
  while (x != y) {
    x = tree_.node(x).parent();
    y = tree_.node(y).parent();
  }
  return x;
}

std::size_t Fabric::add_migration(NodeId from_server, NodeId to_server,
                                  double payload_units) {
  if (!(payload_units >= 0.0)) {
    throw std::invalid_argument("add_migration: negative payload");
  }
  // A degenerate self-migration still transits the server's edge switch.
  const NodeId meet = from_server == to_server
                          ? tree_.node(from_server).parent()
                          : lca(from_server, to_server);
  std::size_t hops = 0;
  auto deposit = [&](NodeId group) {
    auto& s = mutable_stats(group);
    s.period_traffic += payload_units;
    s.period_migration_traffic += payload_units;
    s.total_traffic += payload_units;
    s.total_migration_traffic += payload_units;
    s.period_migration_cost +=
        Watts{config_.migration_cost_w_per_unit * payload_units};
    ++hops;
  };
  // Up from the source's parent to the LCA (inclusive)...
  for (NodeId cur = tree_.node(from_server).parent();;
       cur = tree_.node(cur).parent()) {
    deposit(cur);
    if (cur == meet) break;
  }
  // ...then down to the destination's parent (exclusive of the LCA).
  std::vector<NodeId> down;
  for (NodeId cur = tree_.node(to_server).parent(); cur != meet;
       cur = tree_.node(cur).parent()) {
    down.push_back(cur);
  }
  for (auto it = down.rbegin(); it != down.rend(); ++it) deposit(*it);
  return hops;
}

std::size_t Fabric::add_flow_traffic(NodeId server_a, NodeId server_b,
                                     double units) {
  if (!(units >= 0.0)) {
    throw std::invalid_argument("add_flow_traffic: negative units");
  }
  if (server_a == server_b) return 0;  // co-located: stays on the host
  const NodeId meet = lca(server_a, server_b);
  std::size_t hops = 0;
  auto deposit = [&](NodeId group) {
    auto& s = mutable_stats(group);
    s.period_traffic += units;
    s.period_flow_traffic += units;
    s.total_traffic += units;
    s.total_flow_traffic += units;
    ++hops;
  };
  for (NodeId cur = tree_.node(server_a).parent();;
       cur = tree_.node(cur).parent()) {
    deposit(cur);
    if (cur == meet) break;
  }
  std::vector<NodeId> down;
  for (NodeId cur = tree_.node(server_b).parent(); cur != meet;
       cur = tree_.node(cur).parent()) {
    down.push_back(cur);
  }
  for (auto it = down.rbegin(); it != down.rend(); ++it) deposit(*it);
  return hops;
}

Watts Fabric::switch_power(NodeId group) const {
  const auto& s = stats(group);
  const double per_switch =
      s.period_traffic / static_cast<double>(config_.redundancy);
  return config_.power.power(per_switch);
}

Watts Fabric::group_power(NodeId group) const {
  return switch_power(group) * static_cast<double>(config_.redundancy);
}

double Fabric::utilization(NodeId group) const {
  const auto& s = stats(group);
  return s.period_traffic /
         (config_.switch_capacity * static_cast<double>(config_.redundancy));
}

double Fabric::normalized_migration_traffic() const {
  double mig = 0.0;
  for (const auto& s : stats_) mig += s.period_migration_traffic;
  const double capacity = config_.switch_capacity *
                          static_cast<double>(config_.redundancy) *
                          static_cast<double>(stats_.size());
  return capacity > 0.0 ? mig / capacity : 0.0;
}

Watts Fabric::total_migration_cost() const {
  Watts total{0.0};
  for (const auto& s : stats_) total += s.period_migration_cost;
  return total;
}

}  // namespace willow::net
