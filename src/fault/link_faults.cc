#include "fault/link_faults.h"

namespace willow::fault {

// Draw order is fixed (loss, delay, duplicate) and every draw always
// happens, so a verdict never depends on which probabilities are zero —
// part of the reproducibility contract documented in docs/fault_model.md.

UpVerdict LinkFaultModel::up(std::uint32_t node) const {
  auto rng = streams_(node, util::stream_phase::kLinkUp);
  const bool lose = rng.chance(config_.up_loss);
  const bool defer = rng.chance(config_.up_delay);
  const bool duplicate = rng.chance(config_.up_duplicate);
  UpVerdict v;
  v.lose = lose;
  v.defer = !lose && defer;
  v.duplicate = !lose && !defer && duplicate;
  return v;
}

DownVerdict LinkFaultModel::down(std::uint32_t node) const {
  auto rng = streams_(node, util::stream_phase::kLinkDown);
  const bool lose = rng.chance(config_.down_loss);
  const bool duplicate = rng.chance(config_.down_duplicate);
  DownVerdict v;
  v.lose = lose;
  v.duplicate = !lose && duplicate;
  return v;
}

}  // namespace willow::fault
