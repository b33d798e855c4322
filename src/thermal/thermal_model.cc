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

void ThermalModel::step(Watts p, Seconds dt) {
  temperature_ = predict(p, dt);
}

double ThermalModel::decay_for(double dt) const {
  if (dt != cached_decay_dt_) {
    cached_decay_ = std::exp(-params_.c2 * dt);
    cached_decay_dt_ = dt;
  }
  return cached_decay_;
}

Celsius ThermalModel::predict(Watts p, Seconds dt) const {
  if (dt.value() < 0.0) throw std::invalid_argument("ThermalModel: dt < 0");
  const double decay = decay_for(dt.value());
  const double heated = p.value() * params_.c1 / params_.c2 * (1.0 - decay);
  return Celsius{params_.ambient.value() + heated +
                 (temperature_.value() - params_.ambient.value()) * decay};
}

Watts ThermalModel::power_limit(Seconds window) const {
  if (window.value() <= 0.0) {
    throw std::invalid_argument("ThermalModel::power_limit: window must be > 0");
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

Celsius ThermalModel::steady_state(Watts p) const {
  return Celsius{params_.ambient.value() +
                 p.value() * params_.c1 / params_.c2};
}

Watts ThermalModel::steady_state_power_limit() const {
  return Watts{(params_.limit.value() - params_.ambient.value()) * params_.c2 /
               params_.c1};
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
