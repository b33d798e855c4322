// Per-message fault verdicts for the PMU tree links.
//
// The tree's report sweep and the controller's budget distributor ask this
// model, per message, whether the message is lost, deferred, or duplicated.
// Verdicts are drawn from util::tick_stream keyed by (seed, tick, node,
// phase), so asking twice within one tick returns the same answer — one
// link, one fate per tick — and the schedule is independent of thread count,
// sweep order, and how many other links are faulted.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "util/rng.h"

namespace willow::fault {

/// Fate of one upward demand report.  At most one of lose/defer is set
/// (loss wins); duplicate only applies to delivered reports.
struct UpVerdict {
  bool lose = false;
  bool defer = false;
  bool duplicate = false;
};

/// Fate of one downward budget directive.
struct DownVerdict {
  bool lose = false;
  bool duplicate = false;
};

class LinkFaultModel {
 public:
  LinkFaultModel(const LinkFaultConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed), streams_(seed, 0) {}

  [[nodiscard]] const LinkFaultConfig& config() const { return config_; }

  /// The simulator advances the model's clock once per tick; verdicts drawn
  /// at the same tick are reproducible.
  void set_tick(long tick) {
    tick_ = tick;
    streams_ = util::TickStreams(seed_, static_cast<std::uint64_t>(tick));
  }
  [[nodiscard]] long tick() const { return tick_; }

  /// Verdict for `node`'s report to its parent at the current tick.
  [[nodiscard]] UpVerdict up(std::uint32_t node) const;

  /// Verdict for the directive from `node`'s parent down to `node` at the
  /// current tick.
  [[nodiscard]] DownVerdict down(std::uint32_t node) const;

 private:
  LinkFaultConfig config_;
  std::uint64_t seed_;
  long tick_ = 0;
  util::TickStreams streams_;  ///< the streams of tick_
};

}  // namespace willow::fault
