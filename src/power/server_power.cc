#include "power/server_power.h"

#include <algorithm>
#include <stdexcept>

namespace willow::power {

ServerPowerModel::ServerPowerModel(Watts static_power, Watts peak_power)
    : static_power_(static_power), peak_power_(peak_power) {
  if (!(static_power.value() >= 0.0) || !(peak_power >= static_power)) {
    throw std::invalid_argument(
        "ServerPowerModel: need 0 <= static_power <= peak_power");
  }
}

Watts ServerPowerModel::power(double utilization) const {
  const double u = std::clamp(utilization, 0.0, 1.0);
  return static_power_ + dynamic_range() * u;
}

double ServerPowerModel::utilization(Watts p) const {
  if (dynamic_range().value() <= 0.0) {
    return p >= peak_power_ ? 1.0 : 0.0;
  }
  const double u = (p - static_power_) / dynamic_range();
  return std::clamp(u, 0.0, 1.0);
}

ServerPowerModel ServerPowerModel::paper_testbed() {
  return ServerPowerModel(Watts{159.5}, Watts{232.0});
}

ServerPowerModel ServerPowerModel::paper_simulation() {
  // A small idle floor: the simulation treats demand directly in watts and
  // assumes aggressive idle power control underneath (Sec. IV-E: "fine
  // grained power control in individual nodes is already being done").  The
  // floor must stay below the thermal steady-state limit of the paper's
  // constants (c2/c1 * 45 degC ~= 28 W) or an idle server would eventually
  // overheat by merely existing.
  return ServerPowerModel(Watts{10.0}, Watts{450.0});
}

}  // namespace willow::power
