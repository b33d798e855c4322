#include "binpack/pack.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace willow::binpack {

namespace {

// The sorts below order by size or capacity with the input index breaking
// exact ties: a strict total order, so std::sort needs no stability to be
// deterministic.  A NaN would break that order, hence the negated checks.
void check_inputs(const std::vector<Item>& items, const std::vector<Bin>& bins) {
  for (const auto& it : items) {
    if (!(it.size >= 0.0)) {
      throw std::invalid_argument("pack: negative or NaN item size");
    }
  }
  for (const auto& b : bins) {
    if (!(b.capacity >= 0.0)) {
      throw std::invalid_argument("pack: negative or NaN capacity");
    }
  }
}

/// Item indices sorted by decreasing size; exact size ties break toward the
/// lower input index.  The tie-break is explicit so the ordering is a
/// documented function of the inputs that callers — e.g. the controller's
/// packing memo — can rely on.
std::vector<std::size_t> by_decreasing_size(const std::vector<Item>& items) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].size != items[b].size) return items[a].size > items[b].size;
    return a < b;
  });
  return order;
}

struct MutableBins {
  std::vector<double> residual;
  std::vector<bool> touched;

  explicit MutableBins(const std::vector<Bin>& bins)
      : residual(bins.size()), touched(bins.size(), false) {
    for (std::size_t i = 0; i < bins.size(); ++i) residual[i] = bins[i].capacity;
  }

  void place(PackResult& r, const std::vector<Item>& items, std::size_t item,
             std::size_t bin) {
    residual[bin] -= items[item].size;
    r.assignments.push_back({item, bin});
    r.placed_size += items[item].size;
    if (!touched[bin]) {
      touched[bin] = true;
      ++r.bins_touched;
    }
  }
};

// Local alias for the exported boundary epsilon (pack.h): the slack forms
// below spell the same judgment as fits(), kept in their historical
// arithmetic shape so results stay bitwise stable.
constexpr double kEps = kCapacityEps;

/// Generic one-pass heuristic over a fixed item order.
PackResult greedy(const std::vector<Item>& items, const std::vector<Bin>& bins,
                  const std::vector<std::size_t>& order, Algorithm algo) {
  PackResult result;
  MutableBins state(bins);
  for (std::size_t item : order) {
    const double size = items[item].size;
    std::size_t chosen = bins.size();
    switch (algo) {
      case Algorithm::kFirstFit:
      case Algorithm::kFirstFitDecreasing:
        for (std::size_t b = 0; b < bins.size(); ++b) {
          if (fits(state.residual[b], size)) {
            chosen = b;
            break;
          }
        }
        break;
      case Algorithm::kBestFitDecreasing: {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t b = 0; b < bins.size(); ++b) {
          const double slack = state.residual[b] - size;
          if (slack >= -kEps && slack < best) {
            best = slack;
            chosen = b;
          }
        }
        break;
      }
      case Algorithm::kWorstFitDecreasing: {
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t b = 0; b < bins.size(); ++b) {
          const double slack = state.residual[b] - size;
          if (slack >= -kEps && slack > best) {
            best = slack;
            chosen = b;
          }
        }
        break;
      }
      case Algorithm::kFfdlr:
        throw std::logic_error("greedy: FFDLR handled separately");
    }
    if (chosen < bins.size()) {
      state.place(result, items, item, chosen);
    } else {
      result.unplaced.push_back(item);
    }
  }
  return result;
}

/// FFDLR, Sec. IV-F, adapted to single-use finite bins (see pack.h).
PackResult ffdlr(const std::vector<Item>& items, const std::vector<Bin>& bins) {
  PackResult result;
  if (bins.empty()) {
    result.unplaced.resize(items.size());
    std::iota(result.unplaced.begin(), result.unplaced.end(), std::size_t{0});
    return result;
  }

  // Step 1: normalize so the largest bin has size 1.
  double cmax = 0.0;
  for (const auto& b : bins) cmax = std::max(cmax, b.capacity);
  if (cmax <= 0.0) {
    result.unplaced.resize(items.size());
    std::iota(result.unplaced.begin(), result.unplaced.end(), std::size_t{0});
    return result;
  }

  // Steps 2+3 (shared with the consolidation fast path; see pack.h).
  VirtualGroups vg = ffdlr_virtual_groups(items, cmax);
  result.unplaced = std::move(vg.oversized);
  const std::vector<VirtualGroup>& virt = vg.groups;

  // Step 4: repack each virtual bin's contents into the smallest feasible
  // real bin.  Virtual bins are taken largest-content first so the scarce
  // big real bins go to the groups that need them.
  // Only bins that fit the smallest group can take any group, so only those
  // are ordered: (capacity, index) pairs sort by capacity with the index
  // breaking exact ties.  A wide fleet offered a few leftover items (the
  // root escalation) mostly has bins too small for any of them.
  std::vector<std::pair<double, std::size_t>> real_by_cap;
  if (!virt.empty()) {
    const double smallest = virt.back().content;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (fits(bins[b].capacity, smallest)) {
        real_by_cap.emplace_back(bins[b].capacity, b);
      }
    }
  }
  std::sort(real_by_cap.begin(), real_by_cap.end());

  MutableBins state(bins);
  std::vector<bool> bin_used(bins.size(), false);
  std::vector<std::size_t> leftovers;
  for (const auto& vb : virt) {
    // Smallest unused real bin that fits the whole group.  fits() is
    // monotone in capacity, so the fitting bins are a suffix of real_by_cap:
    // binary-search its start, then skip bins earlier groups took.
    std::size_t chosen = bins.size();
    auto it = std::partition_point(
        real_by_cap.begin(), real_by_cap.end(),
        [&](const auto& bin) { return !fits(bin.first, vb.content); });
    for (; it != real_by_cap.end(); ++it) {
      if (!bin_used[it->second]) {
        chosen = it->second;
        break;
      }
    }
    if (chosen < bins.size()) {
      bin_used[chosen] = true;
      for (std::size_t item : vb.items) {
        state.place(result, items, item, chosen);
      }
    } else {
      // No single unused bin can hold the group; retry its items singly below.
      leftovers.insert(leftovers.end(), vb.items.begin(), vb.items.end());
    }
  }

  // Final pass: leftovers (still in decreasing order within each group) go
  // best-fit into remaining residual capacity, including bins already used —
  // the planner prefers filling servers completely (Sec. IV-F: "repacking
  // into smaller bins means we try to run every server at full utilization").
  std::sort(leftovers.begin(), leftovers.end(),
            [&](std::size_t a, std::size_t b) {
              if (items[a].size != items[b].size) {
                return items[a].size > items[b].size;
              }
              return a < b;
            });
  for (std::size_t item : leftovers) {
    const double size = items[item].size;
    std::size_t chosen = bins.size();
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < bins.size(); ++b) {
      const double slack = state.residual[b] - size;
      if (slack >= -kEps && slack < best) {
        best = slack;
        chosen = b;
      }
    }
    if (chosen < bins.size()) {
      state.place(result, items, item, chosen);
    } else {
      result.unplaced.push_back(item);
    }
  }
  return result;
}

}  // namespace

VirtualGroups ffdlr_virtual_groups(const std::vector<Item>& items,
                                   double cmax) {
  VirtualGroups out;

  // Items larger than the largest bin can never be placed.
  std::vector<std::size_t> order;
  for (std::size_t i : by_decreasing_size(items)) {
    if (!fits(cmax, items[i].size)) {
      out.oversized.push_back(i);
    } else {
      order.push_back(i);
    }
  }

  // Step 2+3: first-fit decreasing into virtual bins of (normalized) size 1.
  for (std::size_t item : order) {
    const double size = items[item].size;
    bool placed = false;
    for (auto& vb : out.groups) {
      if (fits(cmax, vb.content + size)) {
        vb.content += size;
        vb.items.push_back(item);
        placed = true;
        break;
      }
    }
    if (!placed) {
      out.groups.push_back({size, {item}});
    }
  }

  // Step 4's consumption order: largest content first.  Equal content: the
  // earlier-created group (lower leading item index) first.  Every item leads
  // at most one group, so the order is total.
  std::sort(out.groups.begin(), out.groups.end(),
            [](const VirtualGroup& a, const VirtualGroup& b) {
              if (a.content != b.content) return a.content > b.content;
              return a.items.front() < b.items.front();
            });
  return out;
}

PackResult pack(const std::vector<Item>& items, const std::vector<Bin>& bins,
                Algorithm algorithm) {
  check_inputs(items, bins);
  switch (algorithm) {
    case Algorithm::kFfdlr:
      return ffdlr(items, bins);
    case Algorithm::kFirstFit: {
      std::vector<std::size_t> order(items.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      return greedy(items, bins, order, algorithm);
    }
    case Algorithm::kFirstFitDecreasing:
    case Algorithm::kBestFitDecreasing:
    case Algorithm::kWorstFitDecreasing:
      return greedy(items, bins, by_decreasing_size(items), algorithm);
  }
  throw std::invalid_argument("pack: unknown algorithm");
}

bool validate(const PackResult& result, const std::vector<Item>& items,
              const std::vector<Bin>& bins) {
  std::vector<bool> seen(items.size(), false);
  std::vector<double> load(bins.size(), 0.0);
  std::vector<bool> touched(bins.size(), false);
  double placed = 0.0;
  for (const auto& a : result.assignments) {
    if (a.item >= items.size() || a.bin >= bins.size()) return false;
    if (seen[a.item]) return false;
    seen[a.item] = true;
    load[a.bin] += items[a.item].size;
    touched[a.bin] = true;
    placed += items[a.item].size;
  }
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (load[b] > bins[b].capacity + 1e-6) return false;
  }
  for (std::size_t u : result.unplaced) {
    if (u >= items.size() || seen[u]) return false;
    seen[u] = true;
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  if (std::abs(placed - result.placed_size) > 1e-6) return false;
  std::size_t t = 0;
  for (bool b : touched) t += b ? 1 : 0;
  return t == result.bins_touched;
}

std::size_t capacity_lower_bound(const std::vector<Item>& items,
                                 const std::vector<Bin>& bins) {
  double total = 0.0;
  for (const auto& it : items) total += it.size;
  double cmax = 0.0;
  for (const auto& b : bins) cmax = std::max(cmax, b.capacity);
  if (total <= 0.0) return 0;
  if (cmax <= 0.0) return items.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(std::ceil(total / cmax - 1e-9));
}

}  // namespace willow::binpack
