// Variable-sized bin packing — Section IV-F ("Packing The Bins").
//
// Willow's migration planner reduces matching power deficits to surpluses to
// variable-sized bin packing: "The surpluses available in different nodes
// form the bins.  The bins are variable sized and the demands need to be
// fitted in them."  The paper picks FFDLR [Friesen & Langston 1986], which is
// O(n log n) and guarantees (3/2) OPT + 1 bins.
//
// Unlike the textbook problem (unlimited copies of each bin size, minimize
// capacity), the planner's bins are *finite* — each is one concrete node's
// surplus and can be used at most once — and items that fit nowhere are
// dropped (degraded mode).  pack() therefore solves the finite variant:
// maximize placed demand, prefer few bins (so emptied servers can be
// deactivated), never overfill.
//
// FFDLR here follows the paper's four steps: (1) normalize so the largest
// bin has size 1, (2) first-fit the demands in decreasing order into virtual
// unit bins, (3) repeat until all demands are handled, (4) repack the
// contents of each virtual bin into the smallest feasible real bin.  A final
// best-fit pass places any leftovers into residual capacity.  Both walk a
// CapacityIndex, which callers with their own bins can pass to ffdlr().
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace willow::binpack {

/// A demand to be placed.  `group` carries locality (e.g. source rack); the
/// planner solves per-group subproblems first, so pack() itself treats it as
/// opaque.
struct Item {
  std::uint64_t key = 0;  ///< caller's identifier (e.g. application id)
  double size = 0.0;      ///< demand magnitude (watts); must be >= 0
  int group = 0;
};

/// A surplus that can absorb demands.  Capacity is consumed as items land.
struct Bin {
  std::uint64_t key = 0;  ///< caller's identifier (e.g. node id)
  double capacity = 0.0;  ///< must be >= 0
  int group = 0;
};

struct Assignment {
  std::size_t item;  ///< index into the input items
  std::size_t bin;   ///< index into the input bins
};

struct PackResult {
  std::vector<Assignment> assignments;
  std::vector<std::size_t> unplaced;  ///< item indices that fit nowhere
  double placed_size = 0.0;           ///< total size of placed items
  std::size_t bins_touched = 0;       ///< bins that received >= 1 item

  [[nodiscard]] bool all_placed() const { return unplaced.empty(); }
};

enum class Algorithm {
  kFfdlr,              ///< the paper's choice (Sec. IV-F)
  kFirstFit,           ///< input order, first bin that fits
  kFirstFitDecreasing, ///< FFD without the repack step
  kBestFitDecreasing,  ///< tightest-fitting bin
  kWorstFitDecreasing, ///< loosest-fitting bin (load-levelling baseline)
};

/// The float boundary every packing judgment uses: `capacity` can absorb
/// `size` when capacity + kCapacityEps >= size.
inline constexpr double kCapacityEps = 1e-9;
[[nodiscard]] inline bool fits(double capacity, double size) {
  return capacity + kCapacityEps >= size;
}

/// Pack items into (single-use, finite) bins.  Never overfills; items are
/// never split.  Deterministic: ties break toward lower input index.
PackResult pack(const std::vector<Item>& items, const std::vector<Bin>& bins,
                Algorithm algorithm);

/// Bins as (capacity, key) pairs, ordered by capacity and then key: FFDLR's
/// real-bin order, with keys ranked like input positions.  pack(kFfdlr)
/// indexes its bins by input position; a caller that keeps its bins
/// point-updated across many packings passes its own index.  Keys are small
/// integers below UINT32_MAX (ffdlr() keeps a flag per key).
using CapacityIndex = std::set<std::pair<double, std::uint32_t>>;

/// The outcome of one ffdlr() call.  The scratch keeps its storage across
/// calls, so a caller that packs repeatedly reuses one plan.
struct FfdlrPlan {
  /// In placement order; `bin` holds the index key, not an input position.
  std::vector<Assignment> assignments;
  /// Items larger than every bin (in decreasing size), then the items the
  /// final best-fit pass could not place.
  std::vector<std::size_t> unplaced;
  /// Scratch: bins used so far as (key, residual) in first-use order, a
  /// used flag per key, and the items left for the final pass.
  std::vector<std::pair<std::uint32_t, double>> touched;
  std::vector<char> used;
  std::vector<std::size_t> leftovers;
};

/// FFDLR's placement of `items` over the bins in `index`, leaving the bin
/// keyed `skip` unused; pack(kFfdlr) is this over an index of its own bins.
/// Returns whether every item placed.
bool ffdlr(const std::vector<Item>& items, const CapacityIndex& index,
           std::uint32_t skip, FfdlrPlan& plan);

/// Validate a result against its inputs: every assignment in range, no item
/// assigned twice, no bin over capacity, placed_size/bins_touched coherent.
/// Returns true when consistent (used by tests and debug builds).
bool validate(const PackResult& result, const std::vector<Item>& items,
              const std::vector<Bin>& bins);

/// Lower bound on the number of bins any algorithm needs to place all items,
/// assuming every bin had the largest capacity: ceil(sum sizes / max cap).
std::size_t capacity_lower_bound(const std::vector<Item>& items,
                                 const std::vector<Bin>& bins);

}  // namespace willow::binpack
