// Power deficit, surplus and imbalance — Equations (5)–(9).
//
//   P_def(l,i) = [CP_{l,i} - TP_{l,i}]+          (5)
//   P_sur(l,i) = [TP_{l,i} - CP_{l,i}]+          (6)
//   P_def(l)   = max_i P_def(l,i)                (7)
//   P_sur(l)   = max_i P_sur(l,i)                (8)
//   P_imb(l)   = P_def(l) + min(P_def(l), P_sur(l))   (9, as printed)
//
// Eq. (9) is implemented exactly as printed.  The narrative around it ("any
// supply in excess of deficit is not handled by our control scheme") also
// suggests the residual deficit after matching, which we expose separately.
#pragma once

#include "hier/tree.h"
#include "util/units.h"

namespace willow::core {

using hier::NodeId;
using hier::Tree;
using util::Watts;

// The per-node terms are inline: the controller evaluates them per server
// in its demand and consolidation sweeps.

/// Eq. (5): positive part of demand minus budget for one node.
[[nodiscard]] inline Watts node_deficit(const hier::Node& node) {
  return util::positive_part(node.smoothed_demand() - node.budget());
}

/// Eq. (6): positive part of budget minus demand for one node.
[[nodiscard]] inline Watts node_surplus(const hier::Node& node) {
  return util::positive_part(node.budget() - node.smoothed_demand());
}

/// Eq. (5)/(6) evaluated on the node's *reported* demand — what the node last
/// sent to its parent — instead of its instantaneous smoothed demand.  The
/// controller acts on these so that demand movement inside the report
/// dead-band cannot trigger any re-budgeting or migration; with a dead-band
/// of 0 they are bitwise identical to node_deficit / node_surplus.
[[nodiscard]] inline Watts reported_deficit(const hier::Node& node) {
  return util::positive_part(node.reported_demand() - node.budget());
}
[[nodiscard]] inline Watts reported_surplus(const hier::Node& node) {
  return util::positive_part(node.budget() - node.reported_demand());
}

struct LevelBalance {
  Watts max_deficit{0.0};      ///< Eq. (7)
  Watts max_surplus{0.0};      ///< Eq. (8)
  Watts imbalance{0.0};        ///< Eq. (9), as printed
  Watts total_deficit{0.0};    ///< sum over nodes (diagnostic)
  Watts total_surplus{0.0};    ///< sum over nodes (diagnostic)
  Watts residual_deficit{0.0}; ///< [total_deficit - total_surplus]+
};

/// Balance metrics over all *active* nodes at the given paper-level: one pass
/// over the tree's list for that level, in creation order.
[[nodiscard]] LevelBalance level_balance(const Tree& tree, int level);

}  // namespace willow::core
