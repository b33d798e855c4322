// Applications (VM-hosted workloads) — Section IV-E.
//
// "The applications are hosted by one or more virtual machines (VMs) and the
//  demand is migrated between nodes by migrating these virtual machines."
//
// Demands are whole applications: Willow never splits one across servers
// (Sec. IV-E, "migrations are done at the application level").  Each
// Application carries its class, its mean power requirement, and a live
// Poisson-modulated demand; the simulator hosts them on servers and the
// controller moves them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace willow::workload {

using util::Megabytes;
using util::Watts;

/// A class of applications with a characteristic average power requirement.
struct AppClass {
  std::string name;
  /// Mean power requirement, in relative units for the simulation catalog
  /// (1, 2, 5, 9) or in absolute watts for the testbed catalog (8, 10, 15).
  double relative_power = 1.0;
};

/// The paper's simulation catalog (Sec. V-B1): "a random mix of 4 different
/// application types that have a relative average power requirement of
/// 1, 2, 5 and 9".
const std::vector<AppClass>& simulation_catalog();

/// The paper's testbed catalog (Table II): CPU-bound web applications whose
/// measured power increments are A1 = 8 W, A2 = 10 W, A3 = 15 W.
const std::vector<AppClass>& testbed_catalog();

using AppId = std::uint64_t;
constexpr AppId kInvalidApp = 0;

/// Priority of an application: 0 is the most important; larger values shed
/// first.  The paper's Section I: "In cases of serious and relatively
/// long-lived energy deficiency, the only mechanism to cope is to shut down
/// low-priority tasks."
using Priority = int;
constexpr Priority kHighestPriority = 0;

/// One running application instance (== one VM).
class Application {
 public:
  /// @param id          unique, nonzero
  /// @param class_index index into the owning catalog
  /// @param mean_power  average power this application demands
  /// @param image_size  VM image size; determines migration payload
  Application(AppId id, std::size_t class_index, Watts mean_power,
              Megabytes image_size);

  [[nodiscard]] AppId id() const { return id_; }
  [[nodiscard]] std::size_t class_index() const { return class_index_; }
  [[nodiscard]] Watts mean_power() const { return mean_power_; }
  [[nodiscard]] Megabytes image_size() const { return image_size_; }

  /// Instantaneous demand (set by the demand generator each ΔD).
  [[nodiscard]] Watts demand() const { return demand_; }
  void set_demand(Watts d) { demand_ = d; }

  /// Dropped applications are shut down to fit the budget (Sec. IV-E: "the
  /// excess demand is simply dropped").
  [[nodiscard]] bool dropped() const { return dropped_; }
  void set_dropped(bool d) { dropped_ = d; }

  /// Shedding priority (0 = keep longest).
  [[nodiscard]] Priority priority() const { return priority_; }
  void set_priority(Priority p) { priority_ = p; }

  /// Degraded operational mode (Sec. I: "the nature of the computation can
  /// be altered (e.g., reducing the resolution of video ...)").  The service
  /// level scales the application's effective power demand; 1 = full
  /// service.  Dropping and degrading are independent: a dropped app demands
  /// nothing regardless of its service level.
  [[nodiscard]] double service_level() const { return service_level_; }
  void set_service_level(double level);
  [[nodiscard]] bool degraded() const { return service_level_ < 1.0; }

  /// Mean power at the current service level (what the demand generators
  /// target).
  [[nodiscard]] Watts effective_mean_power() const {
    return mean_power_ * service_level_;
  }

 private:
  AppId id_;
  std::size_t class_index_;
  Watts mean_power_;
  Megabytes image_size_;
  Watts demand_{0.0};
  bool dropped_ = false;
  Priority priority_ = kHighestPriority;
  double service_level_ = 1.0;
};

/// Monotonic id source for applications.
class AppIdAllocator {
 public:
  AppId next() { return ++last_; }

 private:
  AppId last_ = kInvalidApp;
};

}  // namespace willow::workload
