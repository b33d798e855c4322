// Proportional budget allocation with hard constraints — Section IV-D.
//
// "The available power budget of any level l+1 is allocated among the nodes
//  in level l proportional to their demands", subject to each child's hard
//  constraint (thermal limit + circuit rating).  When the budget exceeds the
//  total demand, the paper's three-step rule applies: (1) under-provisioned
//  nodes get just enough to satisfy demand, (2) surplus may be harnessed by
//  bringing in additional workload (the controller's revival/wake logic),
//  (3) remaining surplus is spread over children proportional to demand.
//
// allocate_proportional() implements steps (1) and (3) as a capped
// water-filling; whatever cannot be placed under the caps is returned as
// `unallocated` (the quantity step (2) may harness).
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace willow::core {

using util::Watts;

struct AllocationResult {
  std::vector<Watts> budgets;  ///< one per input entry
  Watts unallocated{0.0};      ///< budget no child could absorb (all capped)
};

/// Allocate `total` among entries with the given demands and hard caps.
///
/// Phase 1 (deficit regime): each entry receives a share proportional to its
/// demand, iteratively clamped at min(demand, cap) — nodes whose share
/// exceeds what they can take are frozen and the leftover re-divided among
/// the rest, so no watt idles while an unsatisfied demand remains.
/// Phase 2 (surplus regime): once every demand is met, the remainder is
/// spread proportional to demand over entries still below cap (entries with
/// zero demand share the remainder proportional to cap headroom instead,
/// so a fully idle level still banks its surplus downstream).
///
/// Invariants (tested): sum(budgets) + unallocated == total (within 1e-9);
/// budgets[i] <= caps[i]; budgets[i] >= 0.
AllocationResult allocate_proportional(Watts total,
                                       const std::vector<Watts>& demands,
                                       const std::vector<Watts>& caps);

/// Working storage for the overload below.  Reused across calls, it stops
/// growing at the widest fan-out seen, after which a division allocates
/// nothing.  Contents between calls are meaningless.
struct AllocationScratch {
  std::vector<double> demand;
  std::vector<double> cap;
  std::vector<double> value;
  std::vector<double> limit;
  std::vector<std::uint32_t> live;  ///< entries a water-fill round visits
};

/// allocate_proportional() into caller-owned `out`, working in `scratch`.
/// Same arithmetic in the same order, so the result is bitwise equal to the
/// allocating form; `out.budgets` is resized to demands.size().
void allocate_proportional(Watts total, const std::vector<Watts>& demands,
                           const std::vector<Watts>& caps,
                           AllocationScratch& scratch, AllocationResult& out);

}  // namespace willow::core
