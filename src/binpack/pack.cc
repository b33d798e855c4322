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

/// Orders item indices by decreasing size; exact size ties break toward the
/// lower input index, so the order is a documented function of the inputs.
struct LargerFirst {
  const std::vector<Item>& items;
  bool operator()(std::size_t a, std::size_t b) const {
    if (items[a].size != items[b].size) return items[a].size > items[b].size;
    return a < b;
  }
};

std::vector<std::size_t> by_decreasing_size(const std::vector<Item>& items) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), LargerFirst{items});
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

// The slack forms below spell the same judgment as fits(), kept in their
// historical arithmetic shape so results stay bitwise stable.
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

/// One virtual bin from FFDLR's steps 2+3: the items first-fit into it (in
/// placement order) and their summed size.
struct VirtualGroup {
  double content = 0.0;
  std::vector<std::size_t> items;  ///< indices into the input items
};

/// FFDLR steps 2+3: first-fit the items, in decreasing order, into virtual
/// bins of capacity `cmax`.  Returns the groups in the order step 4 repacks
/// them; items larger than cmax (+eps) can never be placed and are appended
/// to `oversized` in decreasing size.
std::vector<VirtualGroup> virtual_groups(const std::vector<Item>& items,
                                         double cmax,
                                         std::vector<std::size_t>& oversized) {
  std::vector<VirtualGroup> groups;
  for (std::size_t item : by_decreasing_size(items)) {
    const double size = items[item].size;
    if (!fits(cmax, size)) {
      oversized.push_back(item);
      continue;
    }
    // First fit into virtual bins of (normalized) size 1.
    auto vb = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return fits(cmax, g.content + size);
    });
    if (vb == groups.end()) {
      groups.push_back({size, {item}});
    } else {
      vb->content += size;
      vb->items.push_back(item);
    }
  }

  // Step 4's consumption order: largest content first.  Equal content: the
  // earlier-created group (lower leading item index) first.  Every item leads
  // at most one group, so the order is total.
  std::sort(groups.begin(), groups.end(),
            [](const VirtualGroup& a, const VirtualGroup& b) {
              if (a.content != b.content) return a.content > b.content;
              return a.items.front() < b.items.front();
            });
  return groups;
}

/// The best-fit judgment: `capacity` can absorb `size` at slack >= -eps.
bool slack_fits(double capacity, double size) {
  return capacity - size >= -kEps;
}

/// The first index entry from which every capacity passes `takes`, a
/// judgment monotone in capacity.  fits() and the slack form both reject
/// every capacity below size - 2 eps (the margin exceeds their rounding at
/// any magnitude), so the search starts there and steps forward.
template <class Takes>
CapacityIndex::const_iterator first_taking(const CapacityIndex& index,
                                           double size, Takes takes) {
  auto it = index.lower_bound({size - 2 * kEps, 0});
  while (it != index.end() && !takes(it->first)) ++it;
  return it;
}

/// FFDLR, Sec. IV-F, adapted to single-use finite bins (see pack.h).
PackResult ffdlr_bins(const std::vector<Item>& items,
                      const std::vector<Bin>& bins) {
  PackResult result;
  double cmax = 0.0;
  for (const auto& b : bins) cmax = std::max(cmax, b.capacity);
  if (cmax <= 0.0) {  // no bins, or none with any room
    result.unplaced.resize(items.size());
    std::iota(result.unplaced.begin(), result.unplaced.end(), std::size_t{0});
    return result;
  }
  if (bins.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("pack: too many bins for a capacity index");
  }

  // A bin that cannot take the smallest item, under either judgment (fits()
  // in step 4, the slack form in the final pass), can never take any, so
  // only the others are indexed.  A wide fleet offered a few leftover items
  // (the root escalation) mostly has bins too small for any of them.  The
  // largest bin is indexed whenever any is, so the index's top is still
  // step 1's cmax.
  double smallest = std::numeric_limits<double>::infinity();
  for (const auto& it : items) smallest = std::min(smallest, it.size);
  std::vector<std::pair<double, std::uint32_t>> by_cap;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double cap = bins[b].capacity;
    if (fits(cap, smallest) || slack_fits(cap, smallest)) {
      by_cap.emplace_back(cap, static_cast<std::uint32_t>(b));
    }
  }
  std::sort(by_cap.begin(), by_cap.end());
  const CapacityIndex index(by_cap.begin(), by_cap.end());

  FfdlrPlan plan;
  ffdlr(items, index, static_cast<std::uint32_t>(bins.size()), plan);
  result.assignments = std::move(plan.assignments);
  result.unplaced = std::move(plan.unplaced);
  for (const auto& a : result.assignments) {
    result.placed_size += items[a.item].size;
  }
  result.bins_touched = plan.touched.size();
  return result;
}

}  // namespace

bool ffdlr(const std::vector<Item>& items, const CapacityIndex& index,
           std::uint32_t skip, FfdlrPlan& plan) {
  // Forget the previous call's bins: O(bins used), not O(keys).
  for (const auto& t : plan.touched) plan.used[t.first] = 0;
  plan.touched.clear();
  plan.assignments.clear();
  plan.unplaced.clear();
  plan.leftovers.clear();
  const auto available = [&](std::uint32_t key) {
    return key != skip && !(key < plan.used.size() && plan.used[key] != 0);
  };
  const auto use = [&](std::uint32_t key, double residual) {
    if (key >= plan.used.size()) plan.used.resize(key + std::size_t{1}, 0);
    plan.used[key] = 1;
    plan.touched.emplace_back(key, residual);
  };

  // Step 1: normalize so the largest bin has size 1.  Keys are unique, so
  // at most one entry is `skip`.
  auto top = index.rbegin();
  if (top != index.rend() && top->second == skip) ++top;
  const double cmax = top == index.rend() ? 0.0 : top->first;
  const std::vector<VirtualGroup> groups =
      virtual_groups(items, cmax, plan.unplaced);

  // Step 4: repack each virtual bin's contents into the smallest feasible
  // real bin.  Virtual bins are taken largest-content first so the scarce
  // big real bins go to the groups that need them.  fits() is monotone in
  // capacity, so the fitting bins are a suffix of the index: the choice is
  // the first unused bin in it.
  for (const auto& vb : groups) {
    auto it = first_taking(index, vb.content,
                           [&](double cap) { return fits(cap, vb.content); });
    while (it != index.end() && !available(it->second)) ++it;
    if (it == index.end()) {
      // No single unused bin can hold the group; retry its items singly below.
      plan.leftovers.insert(plan.leftovers.end(), vb.items.begin(),
                            vb.items.end());
      continue;
    }
    double residual = it->first;
    for (std::size_t item : vb.items) {
      plan.assignments.push_back({item, it->second});
      residual -= items[item].size;
    }
    use(it->second, residual);
  }

  // Final pass: leftovers (still in decreasing order within each group) go
  // best-fit into remaining residual capacity, including bins already used —
  // the planner prefers filling servers completely (Sec. IV-F: "repacking
  // into smaller bins means we try to run every server at full utilization").
  // Best fit is the least slack, ties to the lowest key.
  std::sort(plan.leftovers.begin(), plan.leftovers.end(), LargerFirst{items});
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t item : plan.leftovers) {
    const double size = items[item].size;
    std::uint32_t chosen = kNone;
    double best = std::numeric_limits<double>::infinity();
    // An unused bin still holds its capacity, so slack grows along the
    // index and the first available entry has the least.  Capacities a few
    // ulps apart can round to one slack; that run follows it, and the
    // lowest key in the run wins.
    auto it = first_taking(index, size,
                           [&](double cap) { return slack_fits(cap, size); });
    for (; it != index.end(); ++it) {
      if (!available(it->second)) continue;
      const double slack = it->first - size;
      if (chosen != kNone && slack != best) break;
      if (it->second < chosen) {
        chosen = it->second;
        best = slack;
      }
    }
    // Used bins compete with their residuals.
    std::size_t used_at = plan.touched.size();
    for (std::size_t t = 0; t < plan.touched.size(); ++t) {
      const auto& [key, residual] = plan.touched[t];
      const double slack = residual - size;
      if (slack_fits(residual, size) &&
          (slack < best || (slack == best && key < chosen))) {
        best = slack;
        chosen = key;
        used_at = t;
      }
    }
    if (chosen == kNone) {
      plan.unplaced.push_back(item);
      continue;
    }
    plan.assignments.push_back({item, chosen});
    if (used_at < plan.touched.size()) {
      plan.touched[used_at].second -= size;
    } else {
      use(chosen, best);  // capacity - size, the slack just computed
    }
  }
  return plan.unplaced.empty();
}

PackResult pack(const std::vector<Item>& items, const std::vector<Bin>& bins,
                Algorithm algorithm) {
  check_inputs(items, bins);
  switch (algorithm) {
    case Algorithm::kFfdlr:
      return ffdlr_bins(items, bins);
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
