// Stability analysis of the control loop — formalizing Section V-A.
//
// Willow's stability rests on three independent arguments the paper makes:
//
//  1. Convergence (Sec. V-A1): updates traverse the h-level hierarchy in
//     delta <= h*alpha_latency; picking the demand period Delta_D at least
//     ~10x that bound keeps decisions based on settled state.
//  2. Estimator dynamics (Eq. 4): the EWMA demand estimator is a first-order
//     low-pass filter; a step change in demand is tracked to within a
//     tolerance after a computable number of periods, so budget division
//     converges geometrically between disturbance events.
//  3. Decision stability (Property 4): if demand fluctuation stays below the
//     migration margin P_min, a placed demand presents no new deficit and no
//     migration reverses for at least Delta_f periods.
//
// This header provides the closed-form pieces of those arguments so
// deployments can check their parameters *before* running anything.
#pragma once

#include "core/controller.h"
#include "hier/convergence.h"

namespace willow::core {

/// Fraction of a demand step the EWMA has absorbed after `periods` updates:
/// 1 - (1 - alpha)^periods.
[[nodiscard]] double ewma_step_response(double alpha, int periods);

/// Smallest number of periods after which the EWMA tracks a step to within
/// `tolerance` (relative): ceil(log(tol) / log(1 - alpha)).  alpha = 1
/// settles instantly (returns 1); throws for alpha outside (0, 1].
[[nodiscard]] int ewma_settling_periods(double alpha, double tolerance);

/// Worst-case demand-estimate error immediately after a step of `step_w`
/// watts, one supply period (eta1 demand periods) later — the staleness the
/// budget division can act on.
[[nodiscard]] util::Watts ewma_step_error_after_supply_period(
    double alpha, int eta1, util::Watts step_w);

struct StabilityAssessment {
  /// Sec. V-A1: demand period >= safety factor * h * per-level latency.
  bool convergence_ok = false;
  /// Eq. 4: the estimator settles (to 5%) within one supply period, so
  /// budgets never chase noise older than one Delta_S.
  bool estimator_ok = false;
  /// Property 4: the margin exceeds the expected demand fluctuation.
  bool margin_ok = false;

  util::Seconds delta;                ///< measured h * alpha bound
  util::Seconds recommended_period;   ///< 10x delta
  int estimator_settling_periods = 0;
  util::Watts margin_headroom{0.0};   ///< margin - fluctuation

  [[nodiscard]] bool stable() const {
    return convergence_ok && estimator_ok && margin_ok;
  }
};

/// Assess a deployment: the tree shape, the controller parameters, the
/// control-network per-level latency, and the expected per-server demand
/// fluctuation amplitude (e.g. ~sqrt(quantum * mean) for Poisson demand).
[[nodiscard]] StabilityAssessment assess_stability(
    const hier::Tree& tree, const ControllerConfig& config,
    util::Seconds per_level_latency, util::Watts demand_fluctuation,
    double smoothing_alpha);

}  // namespace willow::core
