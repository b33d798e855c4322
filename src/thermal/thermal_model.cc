#include "thermal/thermal_model.h"

#include <cmath>
#include <stdexcept>

namespace willow::thermal {

void ThermalParams::validate() const {
  if (!(c1 > 0.0)) throw std::invalid_argument("ThermalParams: c1 must be > 0");
  if (!(c2 > 0.0)) throw std::invalid_argument("ThermalParams: c2 must be > 0");
  if (!(nameplate.value() >= 0.0)) {
    throw std::invalid_argument("ThermalParams: nameplate must be >= 0");
  }
}

ThermalModel::ThermalModel(ThermalParams params)
    : ThermalModel(params, params.ambient) {}

ThermalModel::ThermalModel(ThermalParams params, Celsius initial)
    : params_(params), temperature_(initial) {
  params_.validate();
}

Watts power_limit_from(const ThermalParams& params, Celsius t0,
                       Seconds window) {
  if (window.value() <= 0.0) {
    throw std::invalid_argument("power_limit_from: window must be > 0");
  }
  const double decay = std::exp(-params.c2 * window.value());
  const double headroom = params.limit.value() - params.ambient.value() -
                          (t0.value() - params.ambient.value()) * decay;
  double p = headroom * params.c2 / (params.c1 * (1.0 - decay));
  if (p < 0.0) p = 0.0;
  if (p > params.nameplate.value()) p = params.nameplate.value();
  return Watts{p};
}

}  // namespace willow::thermal
