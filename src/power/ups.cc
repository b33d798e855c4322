#include "power/ups.h"

#include <algorithm>
#include <stdexcept>

namespace willow::power {

Ups::Ups(Joules capacity, Watts max_discharge, Watts max_charge,
         double initial_fraction)
    : capacity_(capacity),
      stored_(Joules{capacity.value() * initial_fraction}),
      max_discharge_(max_discharge),
      max_charge_(max_charge) {
  if (!(capacity.value() >= 0.0) || !(max_discharge.value() >= 0.0) ||
      !(max_charge.value() >= 0.0)) {
    throw std::invalid_argument("Ups: negative parameter");
  }
  if (!(initial_fraction >= 0.0 && initial_fraction <= 1.0)) {
    throw std::invalid_argument("Ups: initial_fraction must be in [0,1]");
  }
}

void Ups::set_failed(bool failed) {
  if (failed == failed_) return;
  failed_ = failed;
  if (bus_ != nullptr && bus_->enabled()) {
    obs::Event e;
    e.type = failed ? obs::EventType::kUpsFail : obs::EventType::kUpsRestore;
    e.value = state_of_charge();
    bus_->emit(std::move(e));
  }
}

Watts Ups::deliverable(Watts supply, Watts demand, Seconds dt) const {
  if (failed_) return util::min(demand, supply);
  if (demand <= supply) return demand;
  const Watts deficit = demand - supply;
  Watts discharge = util::min(deficit, max_discharge_);
  if (dt.value() > 0.0) {
    const Watts energy_limited{stored_.value() / dt.value()};
    discharge = util::min(discharge, energy_limited);
  }
  return supply + discharge;
}

Watts Ups::step(Watts supply, Watts demand, Seconds dt) {
  if (dt.value() <= 0.0) throw std::invalid_argument("Ups::step: dt <= 0");
  constexpr double kEps = 1e-12;
  // A failed UPS is a straight wire: stored energy is held (neither spent
  // nor replenished) until the unit is restored.
  if (failed_) return util::min(demand, supply);
  if (demand <= supply) {
    // Surplus recharges the battery (bounded by charge rate and capacity).
    const Watts surplus = supply - demand;
    const Watts charge = util::min(surplus, max_charge_);
    const Joules before = stored_;
    stored_ = util::min(capacity_, stored_ + charge * dt);
    if (bus_ != nullptr && bus_->enabled() &&
        stored_.value() - before.value() > kEps) {
      obs::Event e;
      e.type = obs::EventType::kUpsCharge;
      e.value = (stored_ - before).value() / dt.value();
      e.aux = state_of_charge();
      bus_->emit(std::move(e));
    }
    return demand;
  }
  const Watts delivered = deliverable(supply, demand, dt);
  const Watts discharge = delivered - supply;
  stored_ = util::max(Joules{0.0}, stored_ - discharge * dt);
  if (bus_ != nullptr && bus_->enabled() && discharge.value() > kEps) {
    obs::Event e;
    e.type = obs::EventType::kUpsDischarge;
    e.value = discharge.value();
    e.aux = state_of_charge();
    bus_->emit(std::move(e));
  }
  return delivered;
}

}  // namespace willow::power
