#include "hier/convergence.h"

#include <algorithm>
#include <stdexcept>

namespace willow::hier {

ConvergenceReport analyze_convergence(const Tree& tree,
                                      Seconds per_level_latency,
                                      double safety_factor) {
  if (!(per_level_latency.value() >= 0.0) || !(safety_factor >= 1.0)) {
    throw std::invalid_argument("analyze_convergence: bad parameters");
  }
  ConvergenceReport r;
  r.levels = tree.height();
  r.per_level_latency = per_level_latency;
  r.delta = per_level_latency * static_cast<double>(r.levels);
  r.recommended_period = r.delta * safety_factor;
  return r;
}

std::vector<Seconds> propagation_times(const Tree& tree, NodeId origin,
                                       Seconds per_level_latency) {
  const double a = per_level_latency.value();
  std::vector<double> t(tree.size(), -1.0);

  // Upward: origin -> root, one level per alpha.
  double clock = 0.0;
  for (NodeId cur = origin;; cur = tree.node(cur).parent()) {
    t[cur] = clock;
    if (tree.node(cur).is_root()) break;
    clock += a;
  }

  // Downward: every node that knows forwards to children one alpha later.
  // Process in top-down order repeatedly until stable (the tree is small and
  // creation order is already parent-first, so one pass after the up-path
  // suffices; we still fix-point for ragged shapes).
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : tree.top_down()) {
      if (t[id] < 0.0) continue;
      for (NodeId c : tree.node(id).children()) {
        const double via = t[id] + a;
        if (t[c] < 0.0 || via < t[c]) {
          t[c] = via;
          changed = true;
        }
      }
    }
  }

  std::vector<Seconds> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = Seconds{t[i]};
  return out;
}

bool period_is_safe(const ConvergenceReport& report, Seconds demand_period) {
  return demand_period >= report.recommended_period;
}

}  // namespace willow::hier
