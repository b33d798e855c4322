#include "binpack/exact.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace willow::binpack {

namespace {
constexpr double kEps = 1e-9;

struct Search {
  const std::vector<Item>& items;
  const std::vector<Bin>& bins;
  std::vector<std::size_t> order;      // items by decreasing size
  std::vector<double> residual;
  std::vector<int> bin_items;          // items currently in each bin
  std::vector<std::size_t> current;    // current[i] = bin or bins.size()
  std::vector<double> suffix_sum;      // sum of sizes from order[i..]

  double best_placed = -1.0;
  std::size_t best_bins = 0;
  std::vector<std::size_t> best_assign;
  std::size_t nodes = 0;

  Search(const std::vector<Item>& it, const std::vector<Bin>& b)
      : items(it), bins(b), residual(b.size()), bin_items(b.size(), 0),
        current(it.size(), b.size()) {
    order.resize(items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return items[x].size > items[y].size;
                     });
    for (std::size_t i = 0; i < bins.size(); ++i) residual[i] = bins[i].capacity;
    suffix_sum.assign(items.size() + 1, 0.0);
    for (std::size_t i = items.size(); i-- > 0;) {
      suffix_sum[i] = suffix_sum[i + 1] + items[order[i]].size;
    }
  }

  [[nodiscard]] std::size_t bins_touched() const {
    std::size_t t = 0;
    for (int c : bin_items) t += c > 0 ? 1 : 0;
    return t;
  }

  void consider(double placed) {
    const std::size_t touched = bins_touched();
    if (placed > best_placed + kEps ||
        (placed > best_placed - kEps && touched < best_bins)) {
      best_placed = std::max(placed, best_placed);
      best_bins = touched;
      best_assign = current;
    }
  }

  void dfs(std::size_t depth, double placed) {
    ++nodes;
    if (depth == order.size()) {
      consider(placed);
      return;
    }
    // Bound: even placing every remaining item cannot beat the incumbent.
    if (placed + suffix_sum[depth] < best_placed - kEps) return;

    const std::size_t item = order[depth];
    const double size = items[item].size;

    // Try each distinct feasible bin.  Bins with identical residuals are
    // symmetric; skip repeats to tame the branching factor.
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (residual[b] + kEps < size) continue;
      bool symmetric_repeat = false;
      for (std::size_t p = 0; p < b; ++p) {
        if (std::abs(residual[p] - residual[b]) < kEps &&
            std::abs(bins[p].capacity - bins[b].capacity) < kEps) {
          symmetric_repeat = true;
          break;
        }
      }
      if (symmetric_repeat) continue;
      residual[b] -= size;
      ++bin_items[b];
      current[item] = b;
      dfs(depth + 1, placed + size);
      current[item] = bins.size();
      --bin_items[b];
      residual[b] += size;
    }
    // Or leave the item unplaced.
    dfs(depth + 1, placed);
  }
};
}  // namespace

ExactResult exact_pack(const std::vector<Item>& items,
                       const std::vector<Bin>& bins, std::size_t max_items) {
  if (items.size() > max_items) {
    throw std::invalid_argument("exact_pack: instance too large");
  }
  for (const auto& it : items) {
    if (!(it.size >= 0.0)) throw std::invalid_argument("exact_pack: negative size");
  }
  Search s(items, bins);
  s.dfs(0, 0.0);
  ExactResult r;
  r.max_placed = std::max(0.0, s.best_placed);
  r.min_bins = s.best_bins;
  r.nodes = s.nodes;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (s.best_assign.size() == items.size() && s.best_assign[i] < bins.size()) {
      r.assignments.push_back({i, s.best_assign[i]});
    }
  }
  return r;
}

}  // namespace willow::binpack
