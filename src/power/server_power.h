// Server power-vs-utilization model — Section IV-C and Table I.
//
// The paper assumes a well-apportioned server with one bottleneck resource
// (CPU), so power consumption is a monotonic, approximately linear function
// of utilization below saturation:
//
//     P(u) = P_static + (P_peak - P_static) * u,      u in [0, 1].
//
// Two calibrations ship with the library:
//  * paper_testbed(): matches Section V-C.  Table I's printed numbers are not
//    legible in the source text, so the line is calibrated to the paper's own
//    worked example — servers at (80, 40, 20)% utilization draw ~580 W total
//    and consolidating the 20% server away saves ~27.5%, which pins
//    P_static = 159.5 W; we pair it with P_peak = 232 W (slope 72.5 W).
//  * paper_simulation(): the simulation section's 450 W-class server.
#pragma once

#include "util/units.h"

namespace willow::power {

using util::Watts;

class ServerPowerModel {
 public:
  /// @param static_power draw at zero utilization (idle but active).
  /// @param peak_power   draw at 100% utilization; must be >= static_power.
  ServerPowerModel(Watts static_power, Watts peak_power);

  [[nodiscard]] Watts static_power() const { return static_power_; }
  [[nodiscard]] Watts dynamic_range() const {
    return peak_power_ - static_power_;
  }

  /// Power drawn at utilization u (clamped to [0, 1]).
  [[nodiscard]] Watts power(double utilization) const;

  /// Inverse: the utilization that draws power p, clamped to [0, 1].
  /// For p <= static_power returns 0; for p >= peak_power returns 1.
  [[nodiscard]] double utilization(Watts p) const;

  /// The Section V-C testbed calibration (see file comment).
  static ServerPowerModel paper_testbed();

  /// The Section V-B simulation server: ~450 W class.  The simulation treats
  /// demand directly in watts, with a small idle floor.
  static ServerPowerModel paper_simulation();

 private:
  Watts static_power_;
  Watts peak_power_;
};

}  // namespace willow::power
