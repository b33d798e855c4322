#include "core/stability.h"

#include <cmath>
#include <stdexcept>

namespace willow::core {

double ewma_step_response(double alpha, int periods) {
  if (!(alpha > 0.0) || alpha > 1.0) {
    throw std::invalid_argument("ewma_step_response: alpha must be in (0,1]");
  }
  if (periods < 0) {
    throw std::invalid_argument("ewma_step_response: negative periods");
  }
  return 1.0 - std::pow(1.0 - alpha, periods);
}

int ewma_settling_periods(double alpha, double tolerance) {
  if (!(alpha > 0.0) || alpha > 1.0) {
    throw std::invalid_argument(
        "ewma_settling_periods: alpha must be in (0,1]");
  }
  if (!(tolerance > 0.0) || tolerance >= 1.0) {
    throw std::invalid_argument(
        "ewma_settling_periods: tolerance must be in (0,1)");
  }
  if (alpha == 1.0) return 1;
  return static_cast<int>(
      std::ceil(std::log(tolerance) / std::log(1.0 - alpha)));
}

util::Watts ewma_step_error_after_supply_period(double alpha, int eta1,
                                                util::Watts step_w) {
  if (eta1 < 1) {
    throw std::invalid_argument(
        "ewma_step_error_after_supply_period: eta1 must be >= 1");
  }
  const double remaining = 1.0 - ewma_step_response(alpha, eta1);
  return step_w * remaining;
}

StabilityAssessment assess_stability(const hier::Tree& tree,
                                     const ControllerConfig& config,
                                     util::Seconds per_level_latency,
                                     util::Watts demand_fluctuation,
                                     double smoothing_alpha) {
  StabilityAssessment a;
  const auto convergence =
      hier::analyze_convergence(tree, per_level_latency, 10.0);
  a.delta = convergence.delta;
  a.recommended_period = convergence.recommended_period;
  a.convergence_ok =
      hier::period_is_safe(convergence, config.demand_period);

  a.estimator_settling_periods = ewma_settling_periods(smoothing_alpha, 0.05);
  a.estimator_ok = a.estimator_settling_periods <= config.eta1;

  a.margin_headroom = config.margin - demand_fluctuation;
  a.margin_ok = a.margin_headroom.value() > 0.0;
  return a;
}

}  // namespace willow::core
