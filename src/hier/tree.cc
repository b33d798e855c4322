#include "hier/tree.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace willow::hier {

Node::Node(NodeId id, NodeId parent, int depth, std::string name, NodeKind kind,
           double smoothing_alpha)
    : id_(id),
      smoothed_(smoothing_alpha),
      hard_limit_(Watts{std::numeric_limits<double>::infinity()}),
      parent_(parent),
      depth_(depth),
      kind_(kind),
      name_(std::move(name)) {}

Tree::Tree(double smoothing_alpha) : alpha_(smoothing_alpha) {
  if (!(smoothing_alpha > 0.0) || smoothing_alpha > 1.0) {
    throw std::invalid_argument("Tree: smoothing alpha must be in (0,1]");
  }
}

NodeId Tree::add_root(std::string name, NodeKind kind) {
  if (root_ != kNoNode) throw std::logic_error("Tree: root already exists");
  root_ = 0;
  nodes_.emplace_back(root_, kNoNode, 0, std::move(name), kind, alpha_);
  height_ = 1;
  by_depth_.assign(1, {root_});
  return root_;
}

NodeId Tree::add_child(NodeId parent, std::string name, NodeKind kind) {
  if (parent >= nodes_.size()) throw std::out_of_range("Tree: bad parent id");
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back(id, parent, nodes_[parent].depth() + 1, std::move(name),
                      kind, alpha_);
  nodes_[parent].children_.push_back(id);
  const int depth = nodes_.back().depth();
  height_ = std::max(height_, depth + 1);
  if (by_depth_.size() <= static_cast<std::size_t>(depth)) {
    by_depth_.resize(static_cast<std::size_t>(depth) + 1);
  }
  by_depth_[static_cast<std::size_t>(depth)].push_back(id);
  return id;
}

std::vector<NodeId> Tree::all_nodes() const {
  std::vector<NodeId> out(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) out[i] = i;
  return out;
}

std::vector<NodeId> Tree::leaves() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.is_leaf()) out.push_back(n.id());
  }
  return out;
}

int Tree::height() const { return height_; }

int Tree::level_of(NodeId id) const {
  return height() - 1 - node(id).depth();
}

const std::vector<NodeId>& Tree::nodes_at_level(int level) const {
  static const std::vector<NodeId> kNone;
  const int depth = height() - 1 - level;
  if (level < 0 || depth < 0) return kNone;
  return by_depth_[static_cast<std::size_t>(depth)];
}

std::vector<NodeId> Tree::bottom_up() const {
  // Creation order guarantees parents precede children, so the reverse of
  // creation order lists children before parents.
  std::vector<NodeId> out = all_nodes();
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Tree::top_down() const { return all_nodes(); }

bool Tree::is_ancestor(NodeId ancestor, NodeId id) const {
  for (NodeId cur = id; cur != kNoNode; cur = node(cur).parent()) {
    if (cur == ancestor) return true;
  }
  return false;
}

void Tree::set_event_bus(obs::EventBus* bus) {
  bus_ = bus;
  if (bus_ != nullptr) {
    auto& m = bus_->metrics();
    c_reaggregated_ = &m.counter("control.nodes_reaggregated");
    c_skipped_ = &m.counter("control.nodes_skipped");
    c_reports_ = &m.counter("control.demand_reports");
  } else {
    c_reaggregated_ = nullptr;
    c_skipped_ = nullptr;
    c_reports_ = nullptr;
    c_link_drops_up_ = nullptr;
    c_link_defers_up_ = nullptr;
    c_link_dups_up_ = nullptr;
  }
  if (link_faults_ != nullptr) resolve_fault_counters();
}

void Tree::set_link_faults(const fault::LinkFaultModel* faults) {
  link_faults_ = faults;
  if (link_faults_ != nullptr) resolve_fault_counters();
}

void Tree::resolve_fault_counters() {
  // Resolved only when a fault model is actually installed: registering the
  // counters unconditionally would add zero-valued entries to the metrics
  // snapshot and change fault-free result JSON.
  if (bus_ == nullptr) return;
  auto& m = bus_->metrics();
  c_link_drops_up_ = &m.counter("fault.link_drops_up");
  c_link_defers_up_ = &m.counter("fault.link_defers_up");
  c_link_dups_up_ = &m.counter("fault.link_duplicates_up");
}

void Tree::observe_leaf(NodeId id, Watts demand) {
  Node& n = nodes_.at(id);
  // The update would reproduce the stored value bitwise: the EWMA is at its
  // fixed point for exactly this input.  (Demands are non-negative, so the
  // == cannot be hiding a +0/-0 sign difference.)
  if (incremental_ && n.settled_ &&
      demand.value() == n.raw_demand_.value()) {
    return;
  }
  n.observe_demand(demand);
}

void Tree::mark_report_dirty(NodeId id) {
  Node& n = nodes_.at(id);
  n.pending_ = true;
  if (n.parent_ != kNoNode) nodes_[n.parent_].pending_ = true;
}

void Tree::shadow_check_skipped(const Node& n) const {
  // A skipped node must be at its EWMA fixed point for inputs that have not
  // moved, and must owe its parent no report.
  bool ok = n.settled_;
  if (ok && !n.is_leaf()) {
    Watts sum{0.0};
    for (NodeId c : n.children_) {
      const Node& child = nodes_[c];
      if (child.active()) sum += child.reported_;
    }
    const Watts input = n.active() ? sum : Watts{0.0};
    ok = input.value() == n.raw_demand_.value();
  } else if (ok && !n.active()) {
    ok = n.raw_demand_.value() == 0.0;
  }
  if (ok && !n.is_root()) {
    const double moved =
        std::abs(n.smoothed_demand().value() - n.reported_.value());
    ok = n.reported_once_ && moved == 0.0;
  }
  if (!ok) {
    throw std::logic_error(
        "Tree::report_demands shadow diff: incremental sweep skipped node " +
        std::to_string(n.id()) + " whose inputs changed");
  }
}

void Tree::report_demands() {
  const bool observe = bus_ != nullptr && bus_->enabled();
  reported_last_sweep_.clear();
  std::uint64_t processed = 0;
  std::uint64_t reports = 0;
  // Descending id == bottom-up (children before parents), the same order the
  // full walk uses, so skipping cannot reorder the event stream.
  for (NodeId id = static_cast<NodeId>(nodes_.size()); id-- > 0;) {
    Node& n = nodes_[id];
    if (incremental_ && !n.pending_ && n.settled_) {
      if (shadow_diff_) shadow_check_skipped(n);
      continue;
    }
    ++processed;
    if (!n.is_leaf()) {
      Watts sum{0.0};
      for (NodeId c : n.children_) {
        const Node& child = nodes_[c];
        if (child.active()) sum += child.reported_;
      }
      n.observe_demand(n.active() ? sum : Watts{0.0});
    } else if (!n.active()) {
      n.observe_demand(Watts{0.0});
    }
    n.pending_ = false;
    if (n.is_root()) continue;
    // Event-driven report: only when the smoothed demand moved since the
    // last report (first sweep always reports).
    const Watts smoothed = n.smoothed_demand();
    const double moved = std::abs(smoothed.value() - n.reported_.value());
    if (n.reported_once_ && moved == 0.0) continue;
    fault::UpVerdict fate{};
    if (link_faults_ != nullptr) fate = link_faults_->up(id);
    if (fate.lose || fate.defer) {
      // The report left the node but never reached the parent: reported_ is
      // unchanged, the parent is not pended, and the node stays pending so
      // the next sweep naturally re-sends (a deferred report *is* its own
      // retransmission).  Skips stay provable: the parent's view of this
      // child did not move.
      n.pending_ = true;
      if (fate.lose) {
        if (c_link_drops_up_ != nullptr) c_link_drops_up_->increment();
      } else if (c_link_defers_up_ != nullptr) {
        c_link_defers_up_->increment();
      }
      if (observe) {
        obs::Event e;
        e.type = fate.lose ? obs::EventType::kLinkDrop
                           : obs::EventType::kLinkDefer;
        e.node = id;
        e.node2 = n.parent_;
        e.direction = obs::LinkDirection::kUp;
        e.value = smoothed.value();
        e.aux = n.raw_demand_.value();
        bus_->emit(std::move(e));
      }
      continue;
    }
    n.reported_ = smoothed;
    n.reported_once_ = true;
    nodes_[n.parent_].pending_ = true;
    n.count_up();
    ++reports;
    reported_last_sweep_.push_back(id);
    if (observe) {
      obs::Event e;
      e.type = obs::EventType::kLinkMessage;
      e.node = id;
      e.node2 = n.parent_;
      e.direction = obs::LinkDirection::kUp;
      e.value = smoothed.value();
      e.aux = n.raw_demand_.value();
      bus_->emit(std::move(e));
    }
    if (fate.duplicate) {
      // Duplicated delivery: idempotent at the parent (same payload summed
      // into the same aggregation), but one extra message on the link.
      n.count_up();
      ++reports;
      if (c_link_dups_up_ != nullptr) c_link_dups_up_->increment();
      if (observe) {
        obs::Event e;
        e.type = obs::EventType::kLinkMessage;
        e.node = id;
        e.node2 = n.parent_;
        e.direction = obs::LinkDirection::kUp;
        e.value = smoothed.value();
        e.aux = n.raw_demand_.value();
        bus_->emit(std::move(e));
      }
    }
  }
  if (c_reaggregated_ != nullptr) {
    c_reaggregated_->increment(processed);
    c_skipped_->increment(
        static_cast<std::uint64_t>(nodes_.size()) - processed);
    c_reports_->increment(reports);
  }
}

void Tree::record_budget_directive(NodeId id) {
  Node& n = nodes_.at(id);
  if (n.is_root()) return;
  n.count_down();
  if (bus_ != nullptr && bus_->enabled()) {
    obs::Event e;
    e.type = obs::EventType::kLinkMessage;
    e.node = id;
    e.node2 = n.parent_;
    e.direction = obs::LinkDirection::kDown;
    e.value = n.budget().value();
    bus_->emit(std::move(e));
  }
}

void Tree::reset_link_counters() {
  for (auto& n : nodes_) n.reset_link();
}

}  // namespace willow::hier
