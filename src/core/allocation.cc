#include "core/allocation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace willow::core {

namespace {
constexpr double kEps = 1e-12;

/// Distribute `amount` over entries proportional to weights[i], clamping each
/// entry's cumulative value at limit[i].  Mutates `value`; `live` is working
/// storage.  Returns leftover that could not be placed.
///
/// The entries still taking a share are kept as a compacted ascending index
/// list, so a round visits only those; `wsum` and `placed` add the same
/// entries in the same order as a scan that skips the clamped ones.
double water_fill(double amount, const std::vector<double>& weights,
                  const std::vector<double>& limit, std::vector<double>& value,
                  std::vector<std::uint32_t>& live) {
  const std::size_t n = weights.size();
  live.clear();
  // A node with zero weight never receives anything in this pass.
  for (std::size_t i = 0; i < n; ++i) {
    if (!(weights[i] <= kEps || limit[i] - value[i] <= kEps)) {
      live.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (amount > kEps) {
    double wsum = 0.0;
    for (const std::uint32_t i : live) wsum += weights[i];
    if (wsum <= kEps) break;
    bool clamped = false;
    double placed = 0.0;
    std::size_t kept = 0;
    for (const std::uint32_t i : live) {
      const double share = amount * weights[i] / wsum;
      const double headroom = limit[i] - value[i];
      if (share >= headroom - kEps) {
        value[i] += headroom;
        placed += headroom;
        clamped = true;
      } else {
        value[i] += share;
        placed += share;
        live[kept++] = i;
      }
    }
    live.resize(kept);
    amount -= placed;
    if (!clamped) {
      // Nobody clamped: everything proportional went in; done.
      amount = std::max(0.0, amount);
      break;
    }
  }
  return std::max(0.0, amount);
}
}  // namespace

AllocationResult allocate_proportional(Watts total,
                                       const std::vector<Watts>& demands,
                                       const std::vector<Watts>& caps) {
  AllocationScratch scratch;
  AllocationResult result;
  allocate_proportional(total, demands, caps, scratch, result);
  return result;
}

void allocate_proportional(Watts total, const std::vector<Watts>& demands,
                           const std::vector<Watts>& caps,
                           AllocationScratch& scratch, AllocationResult& out) {
  if (demands.size() != caps.size()) {
    throw std::invalid_argument(
        "allocate_proportional: demands/caps size mismatch");
  }
  if (!(total.value() >= 0.0)) {
    throw std::invalid_argument("allocate_proportional: negative total");
  }
  const std::size_t n = demands.size();
  out.budgets.assign(n, Watts{0.0});
  if (n == 0) {
    out.unallocated = total;
    return;
  }

  auto& demand = scratch.demand;
  auto& cap = scratch.cap;
  auto& value = scratch.value;
  auto& limit = scratch.limit;
  demand.resize(n);
  cap.resize(n);
  value.assign(n, 0.0);
  limit.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    demand[i] = std::max(0.0, demands[i].value());
    cap[i] = std::max(0.0, caps[i].value());
    if (std::isinf(cap[i])) cap[i] = std::numeric_limits<double>::max();
  }

  // Phase 1: satisfy demands (each node limited by min(demand, cap)),
  // shares proportional to demand.
  for (std::size_t i = 0; i < n; ++i) limit[i] = std::min(demand[i], cap[i]);
  double leftover =
      water_fill(total.value(), demand, limit, value, scratch.live);

  // Phase 2: spread surplus proportional to demand among nodes below cap.
  if (leftover > kEps) {
    leftover = water_fill(leftover, demand, cap, value, scratch.live);
  }
  // Phase 2b: nodes with zero demand share any remaining surplus in
  // proportion to their cap headroom.
  if (leftover > kEps) {
    for (std::size_t i = 0; i < n; ++i) limit[i] = cap[i] - value[i];
    leftover = water_fill(leftover, limit, cap, value, scratch.live);
  }

  for (std::size_t i = 0; i < n; ++i) out.budgets[i] = Watts{value[i]};
  out.unallocated = Watts{leftover};
}

}  // namespace willow::core
