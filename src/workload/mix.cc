#include "workload/mix.h"

#include <stdexcept>

namespace willow::workload {

std::vector<Application> build_mix(const MixConfig& cfg, AppIdAllocator& ids,
                                   util::Rng& rng) {
  const auto& catalog = cfg.catalog ? *cfg.catalog : simulation_catalog();
  if (catalog.empty()) throw std::invalid_argument("build_mix: empty catalog");
  if (!(cfg.unit_power.value() > 0.0)) {
    throw std::invalid_argument("build_mix: unit_power must be > 0");
  }
  if (!cfg.class_weights.empty() &&
      cfg.class_weights.size() != catalog.size()) {
    throw std::invalid_argument(
        "build_mix: class_weights size must match the catalog");
  }
  double weight_sum = 0.0;
  for (double w : cfg.class_weights) {
    if (!(w >= 0.0)) throw std::invalid_argument("build_mix: negative weight");
    weight_sum += w;
  }
  if (!cfg.class_weights.empty() && weight_sum <= 0.0) {
    throw std::invalid_argument("build_mix: all class weights are zero");
  }
  auto pick_class = [&]() -> std::size_t {
    if (cfg.class_weights.empty()) return rng.index(catalog.size());
    double x = rng.uniform(0.0, weight_sum);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      x -= cfg.class_weights[i];
      if (x <= 0.0) return i;
    }
    return catalog.size() - 1;
  };

  std::vector<Application> apps;
  Watts total{0.0};
  for (;;) {
    const std::size_t cls = pick_class();
    const Watts mean = cfg.unit_power * catalog[cls].relative_power;
    // Stop when adding this app would overshoot the target by more than half
    // of the app's own mean; guarantees totals land near the target without
    // biasing toward small classes only.
    if (total + mean > cfg.target_mean_per_server + mean * 0.5) {
      if (!apps.empty()) break;
      // A server must host at least one application; fall through and accept.
    }
    apps.emplace_back(ids.next(), cls, mean,
                      Megabytes{cfg.image_per_unit.value() *
                                catalog[cls].relative_power});
    if (cfg.priority_levels > 1) {
      apps.back().set_priority(rng.uniform_int(0, cfg.priority_levels - 1));
    }
    total += mean;
    if (total >= cfg.target_mean_per_server) break;
  }
  return apps;
}

std::vector<std::vector<Application>> build_datacenter_mix(
    const MixConfig& cfg, std::size_t servers, AppIdAllocator& ids,
    util::Rng& rng) {
  std::vector<std::vector<Application>> out;
  out.reserve(servers);
  for (std::size_t s = 0; s < servers; ++s) {
    out.push_back(build_mix(cfg, ids, rng));
  }
  return out;
}

Watts total_mean_power(const std::vector<Application>& apps) {
  Watts t{0.0};
  for (const auto& a : apps) t += a.mean_power();
  return t;
}

Watts total_demand(const std::vector<Application>& apps) {
  Watts t{0.0};
  for (const auto& a : apps) {
    if (!a.dropped()) t += a.demand();
  }
  return t;
}

}  // namespace willow::workload
