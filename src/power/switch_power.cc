#include "power/switch_power.h"

#include <algorithm>
#include <stdexcept>

namespace willow::power {

SwitchPowerModel::SwitchPowerModel(Watts static_power,
                                   double watts_per_unit_traffic)
    : static_power_(static_power), watts_per_unit_(watts_per_unit_traffic) {
  if (!(static_power.value() >= 0.0) || !(watts_per_unit_traffic >= 0.0)) {
    throw std::invalid_argument("SwitchPowerModel: negative parameter");
  }
}

Watts SwitchPowerModel::power(double traffic) const {
  if (traffic < 0.0) {
    throw std::invalid_argument("SwitchPowerModel::power: traffic < 0");
  }
  return static_power_ + Watts{watts_per_unit_ * traffic};
}

double SwitchPowerModel::capacity_under_budget(Watts budget) const {
  if (watts_per_unit_ <= 0.0) return 0.0;
  return std::max(0.0, (budget - static_power_).value() / watts_per_unit_);
}

SwitchPowerModel SwitchPowerModel::paper_simulation() {
  return SwitchPowerModel(Watts{5.0}, 40.0);
}

}  // namespace willow::power
