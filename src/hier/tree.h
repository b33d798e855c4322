// The multi-level power-control hierarchy — Section IV-A (Fig. 1) and the
// control-message pattern of Fig. 2.
//
// A Tree holds PMU (power-management-unit) nodes: the datacenter PMU at the
// top, rack PMUs below it, server/switch PMUs at the bottom.  Each node
// carries the per-node control state the paper names:
//
//   TP_{l,i}  power budget assigned by the parent          (budget())
//   CP_{l,i}  exponentially smoothed power demand, Eq. (4) (smoothed_demand())
//   hard limit: min(thermal P_limit, circuit rating)       (hard_limit())
//
// Control messaging is event-driven, matching the paper's Property 3
// argument that the hierarchy localizes change: a node sends a demand report
// up only when its smoothed demand moved (beyond an optional dead-band)
// since its last report, and the budget distributor sends a directive down
// only when a budget actually changed.  The tree counts messages per link so
// Property 3 ("at most 2 messages per link per Delta_D") is checkable, and
// models per-level update latency for the delta-convergence analysis of
// Section V-A1.
//
// The report sweep has two walk policies with identical outputs:
//   full        every node re-aggregates every sweep (EWMA updates included);
//   incremental only nodes whose inputs could have changed are walked — a
//               leaf observation, a child report, or an activity flip marks
//               the node pending; everything else is provably at its EWMA
//               fixed point and is skipped.
// Because a skipped update is bitwise a no-op, both policies produce the
// same smoothed values, the same reports, and the same event stream; the
// shadow-diff mode re-derives each skipped node's inputs and throws on any
// divergence.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "fault/link_faults.h"
#include "obs/bus.h"
#include "util/ewma.h"
#include "util/units.h"

namespace willow::hier {

using util::Watts;

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

enum class NodeKind {
  kDatacenter,
  kRack,
  kServer,
  kSwitch,
  kGeneric,
};

/// Per-link control-message counters (link = node <-> its parent).
struct LinkCounters {
  std::uint64_t up = 0;    ///< demand reports child -> parent
  std::uint64_t down = 0;  ///< budget directives parent -> child
};

class Node {
 public:
  Node(NodeId id, NodeId parent, int depth, std::string name, NodeKind kind,
       double smoothing_alpha);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] NodeId parent() const { return parent_; }
  [[nodiscard]] const std::vector<NodeId>& children() const { return children_; }
  [[nodiscard]] bool is_leaf() const { return children_.empty(); }
  [[nodiscard]] bool is_root() const { return parent_ == kNoNode; }
  /// Distance from the root (root = 0).  The paper's "level" counts from the
  /// bottom; see Tree::level_of().
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeKind kind() const { return kind_; }

  /// TP_{l,i}: the budget currently assigned by the parent.
  [[nodiscard]] Watts budget() const { return budget_; }
  void set_budget(Watts b) { budget_ = b; }

  /// CP_{l,i}: smoothed demand (Eq. 4).  For internal nodes this is the
  /// aggregated, smoothed sum of children's reports.
  [[nodiscard]] Watts smoothed_demand() const { return smoothed_.value(); }
  /// Latest raw (unsmoothed) demand report.
  [[nodiscard]] Watts raw_demand() const { return raw_demand_; }
  /// The demand this node last sent to its parent (what the parent's
  /// aggregation sums).  Equals smoothed_demand() bitwise whenever the
  /// report dead-band is 0.
  [[nodiscard]] Watts reported_demand() const { return reported_; }
  /// Feed a new raw demand observation; updates the EWMA and marks the node
  /// for the next report sweep.
  void observe_demand(Watts d) {
    raw_demand_ = d;
    const double before = smoothed_.value().value();
    const bool was_seeded = smoothed_.seeded();
    smoothed_.update(d);
    settled_ = was_seeded && smoothed_.value().value() == before;
    pending_ = true;
  }
  /// True once an update with the current raw demand left the EWMA bitwise
  /// unchanged — its fixed point for that input (Eq. 4 converges to a
  /// period-1 fixed point under constant input).  Re-feeding the same raw
  /// demand is then a provable no-op.
  [[nodiscard]] bool ewma_settled() const { return settled_; }

  /// Hard constraint on this node's budget: min(thermal limit over the next
  /// window, power-circuit rating).  Sec. IV-D "Hard Constraints".
  [[nodiscard]] Watts hard_limit() const { return hard_limit_; }
  void set_hard_limit(Watts h) { hard_limit_ = h; }

  /// Deactivated nodes (deep sleep S3/S4 after consolidation) hold no budget
  /// and report zero demand.
  [[nodiscard]] bool active() const { return active_; }
  void set_active(bool a) { active_ = a; }

  /// Control-message counters on the link to the parent.
  [[nodiscard]] const LinkCounters& link() const { return link_; }
  void count_up() { ++link_.up; }
  void count_down() { ++link_.down; }
  void reset_link() { link_ = {}; }

 private:
  friend class Tree;

  // What the per-server sweeps read (activity, budget, reported and
  // smoothed demand) fills the first 32 bytes, so a sweep touches one or two
  // cache lines per node; names, children and counters follow.  The class
  // is not over-aligned: aligning the node vector raised churn_10k's peak
  // RSS by about 1 MB (allocator fragmentation across repetitions).
  bool active_ = true;
  bool reported_once_ = false;  ///< first sweep always reports
  bool settled_ = false;        ///< see ewma_settled()
  bool pending_ = true;         ///< needs processing in the next sweep
  NodeId id_;
  Watts budget_{0.0};
  Watts reported_{0.0};
  util::Ewma<Watts> smoothed_;  ///< its value comes first
  Watts hard_limit_{std::numeric_limits<double>::infinity()};
  NodeId parent_;
  int depth_;
  NodeKind kind_;
  Watts raw_demand_{0.0};
  std::vector<NodeId> children_;
  std::string name_;
  LinkCounters link_;
};

class Tree {
 public:
  /// @param smoothing_alpha Eq. (4) alpha applied at every node.
  explicit Tree(double smoothing_alpha = 0.7);

  /// Create the root; must be called exactly once, first.
  NodeId add_root(std::string name, NodeKind kind = NodeKind::kDatacenter);
  /// Create a child of `parent`.
  NodeId add_child(NodeId parent, std::string name,
                   NodeKind kind = NodeKind::kGeneric);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }

  /// All node ids in creation order.
  [[nodiscard]] std::vector<NodeId> all_nodes() const;
  /// Leaves in creation order.
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// Height: number of levels (a root-only tree has height 1).
  [[nodiscard]] int height() const;

  /// The paper's level numbering: leaves' level is 0 in a uniform-depth tree;
  /// in general level = height - 1 - depth.
  [[nodiscard]] int level_of(NodeId id) const;

  /// Nodes at a given paper-level, in creation order (empty when the level
  /// does not exist).  O(1): the lists are kept per depth as nodes are added,
  /// and a level is the depth height - 1 - level.
  [[nodiscard]] const std::vector<NodeId>& nodes_at_level(int level) const;

  /// Ids in bottom-up order (children before parents).
  [[nodiscard]] std::vector<NodeId> bottom_up() const;
  /// Ids in top-down order (parents before children).
  [[nodiscard]] std::vector<NodeId> top_down() const;

  /// True if `ancestor` lies on the root path of `id` (or equals it).
  [[nodiscard]] bool is_ancestor(NodeId ancestor, NodeId id) const;

  /// Report-sweep walk policy: when true, only pending/unsettled nodes are
  /// re-aggregated (outputs are bitwise identical either way; see the file
  /// comment).  Off by default so a bare Tree behaves like the full walk.
  void set_incremental(bool on) { incremental_ = on; }
  [[nodiscard]] bool incremental() const { return incremental_; }
  /// Dead-band on demand reports (W): a node re-reports only when its
  /// smoothed demand moved more than this since its last report.  0 = exact
  /// (a report on every bitwise change).
  void set_report_deadband(Watts w) { deadband_ = w; }
  [[nodiscard]] Watts report_deadband() const { return deadband_; }
  /// Debug shadow mode: every node the incremental sweep skips is re-derived
  /// from its inputs; any divergence from the full walk throws
  /// std::logic_error.
  void set_shadow_diff(bool on) { shadow_diff_ = on; }

  /// Leaf observation with the incremental fast path: the EWMA update is
  /// skipped when the observation is bitwise identical to the previous raw
  /// demand and the EWMA already reached its fixed point for it (the update
  /// would be a no-op).  Full mode always feeds the EWMA.
  void observe_leaf(NodeId id, Watts demand);

  /// Mark `id` (and its parent's aggregation) for the next report sweep —
  /// required when an input the sweep cannot see changes, i.e. an active
  /// flag flip: the parent's sum-over-active-children changes even though no
  /// child re-reported.
  void mark_report_dirty(NodeId id);

  /// One demand-report sweep (Fig. 2, upward): every active leaf has already
  /// had its measurement observed; internal nodes then observe the sum of
  /// their children's *reported* demands, bottom-up.  A node sends a report
  /// (one `up` message + one kLinkMessage) only when its smoothed demand
  /// moved beyond the dead-band since its last report.
  void report_demands();

  /// Nodes whose report fired during the most recent report_demands() sweep,
  /// in sweep (bottom-up) order.  The controller consumes this to mark the
  /// budget-division and consolidation state dirty.
  [[nodiscard]] const std::vector<NodeId>& reported_last_sweep() const {
    return reported_last_sweep_;
  }

  /// Account one budget directive flowing parent -> `id` (called by the
  /// budget distributor after it changed `id`'s budget; the tree itself does
  /// not decide budgets).  Counts one `down` message and emits one
  /// kLinkMessage carrying the new budget.  No-op for the root.
  void record_budget_directive(NodeId id);

  /// Reset all message counters.
  void reset_link_counters();

  /// Attach an observability bus (not owned; may be null).  When attached
  /// and enabled, every control message crossing a link becomes one
  /// kLinkMessage event — the stream Property 3 ("at most 2 messages per
  /// link per ΔD") is asserted against.
  void set_event_bus(obs::EventBus* bus);

  /// Attach a link-fault model (not owned; may be null).  When set, every
  /// demand report consults it: lost/deferred reports leave the child
  /// pending (it re-sends next sweep) and emit kLinkDrop/kLinkDefer;
  /// duplicated reports cost a second link message.  Null (the default)
  /// keeps the sweep byte-identical to a fault-free build.
  void set_link_faults(const fault::LinkFaultModel* faults);

 private:
  /// Shadow-diff verification of one node the incremental sweep skipped.
  void shadow_check_skipped(const Node& n) const;

  double alpha_;
  std::vector<Node> nodes_;
  NodeId root_ = kNoNode;
  int height_ = 0;  ///< maintained by add_root/add_child; see height()
  /// Node ids by depth, in creation order; maintained by add_root/add_child.
  std::vector<std::vector<NodeId>> by_depth_;
  obs::EventBus* bus_ = nullptr;
  bool incremental_ = false;
  bool shadow_diff_ = false;
  Watts deadband_{0.0};
  std::vector<NodeId> reported_last_sweep_;
  /// Sweep instruments, resolved when the bus is attached (the registry
  /// outlives the tree's use of it; counters are stable references).
  obs::Counter* c_reaggregated_ = nullptr;
  obs::Counter* c_skipped_ = nullptr;
  obs::Counter* c_reports_ = nullptr;
  /// Fault instruments, resolved only when a link-fault model is installed
  /// so fault-free runs register no extra counters.
  void resolve_fault_counters();
  const fault::LinkFaultModel* link_faults_ = nullptr;
  obs::Counter* c_link_drops_up_ = nullptr;
  obs::Counter* c_link_defers_up_ = nullptr;
  obs::Counter* c_link_dups_up_ = nullptr;
};

}  // namespace willow::hier
