#include "core/balance.h"

namespace willow::core {

LevelBalance level_balance(const Tree& tree, int level) {
  LevelBalance b;
  for (NodeId id : tree.nodes_at_level(level)) {
    const auto& n = tree.node(id);
    // An inactive node contributes +0 instead of being skipped: the terms
    // are >= +0, so neither the sums nor the maxima move (no branch on a
    // sleep pattern).
    const Watts d{util::keep_or_zero(n.active(), node_deficit(n).value())};
    const Watts s{util::keep_or_zero(n.active(), node_surplus(n).value())};
    b.max_deficit = util::max(b.max_deficit, d);
    b.max_surplus = util::max(b.max_surplus, s);
    b.total_deficit += d;
    b.total_surplus += s;
  }
  b.imbalance = b.max_deficit + util::min(b.max_deficit, b.max_surplus);
  b.residual_deficit = util::positive_part(b.total_deficit - b.total_surplus);
  return b;
}

}  // namespace willow::core
