// Battery-backed UPS model — Section IV-C.
//
// "Because of the presence of battery backed UPS and other energy storage
//  devices, any temporary deficit in power supply in a data center is
//  integrated out.  Hence the supply side time constants are assumed to be
//  Delta_S = eta_1 * Delta_D."
//
// The Ups sits between a raw SupplyProfile and the root PMU: over each supply
// period it delivers raw supply plus bounded battery discharge (when demand
// exceeds supply) or recharges from surplus.  The effect Willow sees is a
// low-pass-filtered budget whose short dips are absorbed and whose long
// plunges still come through — exactly why ΔS can be coarser than ΔD.
#pragma once

#include "obs/bus.h"
#include "util/units.h"

namespace willow::power {

using util::Joules;
using util::Seconds;
using util::Watts;

class Ups {
 public:
  /// @param capacity        usable stored energy when full
  /// @param max_discharge   cap on battery power added to the feed
  /// @param max_charge      cap on recharge power taken from surplus
  /// @param initial_fraction initial state of charge in [0, 1]
  Ups(Joules capacity, Watts max_discharge, Watts max_charge,
      double initial_fraction = 1.0);

  [[nodiscard]] Joules capacity() const { return capacity_; }
  [[nodiscard]] Joules stored() const { return stored_; }
  [[nodiscard]] double state_of_charge() const {
    return capacity_.value() > 0.0 ? stored_ / capacity_ : 0.0;
  }

  /// Advance one supply period: the feed provides `supply`, the load wants
  /// `demand`, for `dt`.  Returns the power actually deliverable to the load
  /// over this period (supply plus discharge, capped).  Surplus beyond demand
  /// recharges the battery.
  Watts step(Watts supply, Watts demand, Seconds dt);

  /// Deliverable power right now if demand were `demand` (no state change).
  [[nodiscard]] Watts deliverable(Watts supply, Watts demand, Seconds dt) const;

  /// Attach an observability bus (not owned; may be null).  step() then emits
  /// kUpsCharge / kUpsDischarge whenever the battery exchanges power.
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Fault injection: a failed UPS passes the raw feed through untouched —
  /// no discharge support, no recharge draw — so supply dips that the
  /// battery would have integrated out hit the control plane directly.
  /// Transitions emit kUpsFail / kUpsRestore (value = state of charge).
  void set_failed(bool failed);
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  Joules capacity_;
  Joules stored_;
  Watts max_discharge_;
  Watts max_charge_;
  bool failed_ = false;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace willow::power
