// Demand processes — Section V-B1: "The power demand in each node was
// assumed to have a Poisson distribution."
//
// PoissonDemand turns an application's mean power m into a random draw
// q * Poisson(m / q), where q is the power quantum per "query" (the paper's
// workloads are transactional; each in-flight query adds roughly fixed
// power).  The draw has mean m and variance q*m, so smaller quanta give
// steadier demand — the knob the stability tests sweep against P_min.
#pragma once

#include <stdexcept>

#include "util/rng.h"
#include "util/units.h"
#include "workload/application.h"

namespace willow::workload {

class PoissonDemand {
 public:
  /// @param quantum power per query; must be > 0.
  explicit PoissonDemand(Watts quantum);

  [[nodiscard]] Watts quantum() const { return quantum_; }

  /// One draw for an application with the given mean power.  Generic over
  /// the generator: the tick engine passes its per-server counter-based
  /// streams (util::StreamRng), the unit tests a sequential util::Rng.
  template <typename RngT>
  [[nodiscard]] Watts sample(Watts mean, RngT& rng) const {
    if (mean.value() <= 0.0) return Watts{0.0};
    const double lambda = mean.value() / quantum_.value();
    return Watts{quantum_.value() * static_cast<double>(rng.poisson(lambda))};
  }

  /// Refresh `app`'s instantaneous demand (no-op for dropped apps: a shut
  /// down application draws nothing).  `intensity` scales the mean (see
  /// workload::IntensityProfile).
  template <typename RngT>
  void refresh(Application& app, RngT& rng, double intensity = 1.0) const {
    if (intensity < 0.0) {
      throw std::invalid_argument("PoissonDemand::refresh: negative intensity");
    }
    app.set_demand(app.dropped()
                       ? Watts{0.0}
                       : sample(app.effective_mean_power() * intensity, rng));
  }

  /// Refresh a whole collection.
  template <typename RngT>
  void refresh_all(std::vector<Application>& apps, RngT& rng,
                   double intensity = 1.0) const {
    for (auto& a : apps) refresh(a, rng, intensity);
  }

 private:
  Watts quantum_;
};

/// Deterministic demand (always the intensity-scaled mean): the per-app
/// kernel of Cluster::refresh_demands_deterministic, which the tick engine
/// runs when the scenario's demand quantum is 0 and which the testbed,
/// examples and controller tests call to hold demand at the mean.
class ConstantDemand {
 public:
  /// `intensity` scales the mean exactly as PoissonDemand::refresh does, so
  /// the deterministic path follows the same demand-side intensity profile.
  static void refresh(Application& app, double intensity = 1.0) {
    if (intensity < 0.0) {
      throw std::invalid_argument(
          "ConstantDemand::refresh: negative intensity");
    }
    app.set_demand(app.dropped() ? Watts{0.0}
                                 : app.effective_mean_power() * intensity);
  }
  static void refresh_all(std::vector<Application>& apps,
                          double intensity = 1.0) {
    for (auto& a : apps) refresh(a, intensity);
  }
};

}  // namespace willow::workload
