// The data-center switch fabric — Section V-B5 (Fig. 8).
//
// "We can easily observe the correspondence of the switch configuration in
//  Figure 8 and the power control hierarchy in Figure 3": every internal PMU
//  node has a switch (group) beside it; level-1 switches attach servers,
//  higher levels aggregate.  Redundant paths are modeled as groups of
//  parallel switches that split load evenly ("the load is balanced evenly
//  between the switches", as in data centers with redundant network paths).
//
// The fabric accounts two kinds of load per control period:
//  * base traffic — user queries entering at the root and descending to the
//    hosting server (transactional workloads, Sec. IV-E), proportional to
//    server utilization;
//  * migration traffic — VM payloads routed server -> LCA -> server, which
//    also deposit a migration *cost* (temporary power demand) on every
//    switch group they cross (Sec. IV-E "Migration Cost").
#pragma once

#include <vector>

#include "hier/tree.h"
#include "power/switch_power.h"
#include "util/units.h"

namespace willow::net {

using hier::NodeId;
using util::Watts;

struct FabricConfig {
  /// Parallel switches per group (>= 1); load splits evenly across them.
  std::size_t redundancy = 2;
  /// Traffic capacity of one switch, in traffic units (1.0 == one fully
  /// utilized server's query traffic).  Used to normalize Fig. 10.
  double switch_capacity = 10.0;
  /// Power model applied per physical switch.
  power::SwitchPowerModel power = power::SwitchPowerModel::paper_simulation();
  /// Temporary power demand deposited on each switch group per unit of
  /// migration payload crossing it (Sec. IV-E migration cost, Fig. 12).
  double migration_cost_w_per_unit = 2.0;
};

/// Cumulative and per-period statistics for one switch group.
struct GroupStats {
  double period_traffic = 0.0;            ///< all components, this period
  double period_migration_traffic = 0.0;  ///< migration component
  double period_flow_traffic = 0.0;       ///< inter-server IPC component
  Watts period_migration_cost{0.0};       ///< temporary power demand
  double total_traffic = 0.0;
  double total_migration_traffic = 0.0;
  double total_flow_traffic = 0.0;
};

class Fabric {
 public:
  /// Build mirroring `tree`: one switch group per internal PMU node.
  /// The tree must outlive the fabric.
  Fabric(const hier::Tree& tree, FabricConfig config);

  [[nodiscard]] const FabricConfig& config() const { return config_; }

  /// Internal PMU nodes that have a switch group, in creation order.
  [[nodiscard]] const std::vector<NodeId>& groups() const { return groups_; }
  /// Switch groups whose children are servers (the paper's "level 1"
  /// switches).
  [[nodiscard]] std::vector<NodeId> level1_groups() const;

  [[nodiscard]] const GroupStats& stats(NodeId group) const;

  /// Zero the per-period counters (call at each demand period).
  void begin_period();

  /// Base query traffic for one server this period: deposited on every
  /// switch group from the server's parent up to the root.  Walks the shape
  /// tables built at construction; throws std::out_of_range for a node added
  /// to the tree after the fabric was built.
  void add_server_traffic(NodeId server, double units);

  /// A migration of `payload_units` from one server to another: traffic and
  /// migration cost deposited on every group along from -> LCA -> to.
  /// Returns the number of switch groups crossed (the hop count).
  std::size_t add_migration(NodeId from_server, NodeId to_server,
                            double payload_units);

  /// Steady inter-server application traffic (IPC between VMs whose hosts
  /// differ): deposited along the server-to-server path like a migration but
  /// without migration cost.  Co-located endpoints deposit nothing.  Returns
  /// the hop count (0 when co-located).
  std::size_t add_flow_traffic(NodeId server_a, NodeId server_b, double units);

  /// Electrical power of one *physical switch* in the group right now
  /// (period traffic split evenly across the group's redundant switches).
  [[nodiscard]] Watts switch_power(NodeId group) const;

  /// Aggregate power of all physical switches in the group.
  [[nodiscard]] Watts group_power(NodeId group) const;

  /// Period traffic of the group as a fraction of the group's total capacity
  /// (redundancy * switch_capacity); may exceed 1 if oversubscribed.
  [[nodiscard]] double utilization(NodeId group) const;

  /// Migration traffic of the whole fabric this period, normalized by total
  /// fabric capacity — the quantity Fig. 10 plots.
  [[nodiscard]] double normalized_migration_traffic() const;

  /// Sum of period migration cost over the given groups.
  [[nodiscard]] Watts total_migration_cost() const;

 private:
  [[nodiscard]] NodeId lca(NodeId a, NodeId b) const;
  GroupStats& mutable_stats(NodeId group);

  const hier::Tree& tree_;
  FabricConfig config_;
  std::vector<NodeId> groups_;
  /// The tree's shape at construction, for the per-server deposit walk:
  /// NodeId -> parent (kNoNode at the root) and NodeId -> index into stats_
  /// (-1 for a leaf).
  std::vector<NodeId> parent_;
  std::vector<int> group_index_;
  std::vector<GroupStats> stats_;
};

}  // namespace willow::net
