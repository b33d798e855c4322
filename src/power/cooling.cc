#include "power/cooling.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace willow::power {

CoolingModel::CoolingModel(CoolingConfig config) : config_(config) {
  if (!(config.cop_at_reference > 0.0) || !(config.min_cop > 0.0)) {
    throw std::invalid_argument("CoolingModel: COPs must be > 0");
  }
  if (!(config.fan_floor.value() >= 0.0)) {
    throw std::invalid_argument("CoolingModel: negative fan floor");
  }
}

double CoolingModel::cop(Celsius outside) const {
  const double raw =
      config_.cop_at_reference +
      config_.cop_slope_per_degc *
          (outside.value() - config_.reference_outside.value());
  return std::max(config_.min_cop, raw);
}

Watts CoolingModel::cooling_power(Watts it_power, Celsius outside) const {
  if (it_power.value() < 0.0) {
    throw std::invalid_argument("CoolingModel: negative IT power");
  }
  return config_.fan_floor + Watts{it_power.value() / cop(outside)};
}

Watts CoolingModel::facility_power(Watts it_power, Celsius outside) const {
  return it_power + cooling_power(it_power, outside);
}

double CoolingModel::pue(Watts it_power, Celsius outside) const {
  if (it_power.value() <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return facility_power(it_power, outside) / it_power;
}

}  // namespace willow::power
