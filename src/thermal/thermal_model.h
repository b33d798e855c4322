// First-order (RC) thermal model of a server/switch component — Section III-A
// of the paper.
//
// The paper's Eq. (1) is printed as dT = [c1 P + c2 (T - Ta)] dt, but its own
// closed-form solution (Eq. 2) decays as e^{-c2 t}; the relaxation term must
// therefore be negative.  We implement
//
//     dT/dt = c1 * P(t) - c2 * (T(t) - Ta)
//
// which reproduces Eq. (2) and Eq. (3) exactly:
//
//     T(t)     = Ta + (T0 - Ta) e^{-c2 t} + c1 e^{-c2 t} \int_0^t P(s) e^{c2 s} ds
//     T(Delta) = Ta + P c1/c2 (1 - e^{-c2 Delta}) + (T0 - Ta) e^{-c2 Delta}
//
// Units: c1 in degC / (W * time-unit), c2 in 1 / time-unit; "time-unit" is
// whatever the caller's Seconds represent (the paper's simulation uses
// abstract adjustment windows).
#pragma once

#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace willow::thermal {

using util::Celsius;
using util::Seconds;
using util::Watts;

/// Static thermal parameters of one component.
struct ThermalParams {
  double c1 = 0.08;               ///< heating coefficient (degC per W per unit time)
  double c2 = 0.05;               ///< cooling rate (per unit time)
  Celsius ambient{25.0};          ///< Ta: temperature of the medium outside
  Celsius limit{70.0};            ///< T_limit: hard thermal ceiling
  Watts nameplate{450.0};         ///< electrical rating; P_limit never exceeds it

  /// Validate invariants (c1, c2 > 0, limit > ambient achievable). Throws
  /// std::invalid_argument on violation.
  void validate() const;
};

/// Stateful thermal integrator for one component.
///
/// All evolution uses the exact solution for piecewise-constant power, so a
/// single step over [0, t] equals any subdivision of it (tested property).
/// The derived limits (power_limit, steady_state_power_limit) are pure
/// functions of the parameters and the current temperature and cost a few
/// flops (the only transcendental is memoized in decay_for).  Nothing caches
/// them against a version: the controller re-derives a server's limit only
/// when Cluster's InputRecord says its temperature, ambient or sensor moved
/// (DESIGN.md §10, "settled tick").
class ThermalModel {
 public:
  explicit ThermalModel(ThermalParams params);
  ThermalModel(ThermalParams params, Celsius initial);

  [[nodiscard]] const ThermalParams& params() const { return params_; }
  [[nodiscard]] Celsius temperature() const { return temperature_; }

  /// Reset to a given temperature (e.g. after relocation or at scenario start).
  void set_temperature(Celsius t) { temperature_ = t; }

  /// Change the ambient temperature (hot/cold zone scenarios, Sec. V-B3).
  void set_ambient(Celsius ta) { params_.ambient = ta; }

  // The evolution and limits are inline: the tick evaluates them for every
  // server, in the thermal step, the thermal clamp and the consolidation
  // sweep.

  /// Advance by dt under constant power draw p (exact, Eq. 2).
  void step(Watts p, Seconds dt) { temperature_ = predict(p, dt); }

  /// Predicted temperature after holding power p for dt, without mutating
  /// state (Eq. 3 used predictively for migration decisions).
  [[nodiscard]] Celsius predict(Watts p, Seconds dt) const {
    if (dt.value() < 0.0) throw std::invalid_argument("ThermalModel: dt < 0");
    const double decay = decay_for(dt.value());
    const double heated = p.value() * params_.c1 / params_.c2 * (1.0 - decay);
    return Celsius{params_.ambient.value() + heated +
                   (temperature_.value() - params_.ambient.value()) * decay};
  }

  /// Maximum constant power that keeps T(t + window) <= T_limit, clamped to
  /// [0, nameplate] (Eq. 3 inverted).  This is the thermal *hard constraint*
  /// on the node's power budget (Sec. IV-D).
  [[nodiscard]] Watts power_limit(Seconds window) const {
    if (window.value() <= 0.0) {
      throw std::invalid_argument(
          "ThermalModel::power_limit: window must be > 0");
    }
    const double decay = decay_for(window.value());
    const double headroom = params_.limit.value() - params_.ambient.value() -
                            (temperature_.value() - params_.ambient.value()) *
                                decay;
    double p = headroom * params_.c2 / (params_.c1 * (1.0 - decay));
    if (p < 0.0) p = 0.0;
    if (p > params_.nameplate.value()) p = params_.nameplate.value();
    return Watts{p};
  }

  /// Steady-state temperature under constant power p.
  [[nodiscard]] Celsius steady_state(Watts p) const {
    return Celsius{params_.ambient.value() +
                   p.value() * params_.c1 / params_.c2};
  }

  /// Power that yields steady-state temperature exactly T_limit
  /// (= c2 (T_limit - Ta) / c1), unclamped by nameplate.
  [[nodiscard]] Watts steady_state_power_limit() const {
    return Watts{(params_.limit.value() - params_.ambient.value()) *
                 params_.c2 / params_.c1};
  }

  /// True when the component is currently at or above its thermal ceiling.
  [[nodiscard]] bool over_limit() const {
    return temperature_ >= params_.limit;
  }

 private:
  /// exp(-c2 * dt), memoized on dt.  Every tick-loop caller (step,
  /// power_limit, predict) evaluates the same window each period, and c2 is
  /// immutable after construction (set_ambient changes only Ta), so the
  /// transcendental is paid once per distinct dt instead of per server per
  /// tick.  Identical bits to the uncached value by construction.
  [[nodiscard]] double decay_for(double dt) const {
    if (dt != cached_decay_dt_) {
      cached_decay_ = std::exp(-params_.c2 * dt);
      cached_decay_dt_ = dt;
    }
    return cached_decay_;
  }

  ThermalParams params_;
  Celsius temperature_;
  mutable double cached_decay_dt_ = -1.0;  ///< invalid: dt must be >= 0
  mutable double cached_decay_ = 1.0;
};

/// Stateless form of power_limit (used by Fig. 4 / Fig. 14 sweeps): the
/// maximum constant power over `window` starting from temperature t0.
[[nodiscard]] Watts power_limit_from(const ThermalParams& params, Celsius t0,
                                     Seconds window);

}  // namespace willow::thermal
