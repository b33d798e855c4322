#include "power/supply.h"

#include <cmath>
#include <stdexcept>

namespace willow::power {

namespace {
constexpr double kTwoPi = 6.283185307179586;

/// SplitMix64: cheap stateless hash used for per-interval cloud attenuation.
double hash_unit(unsigned long long seed, unsigned long long k) {
  unsigned long long z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}
}  // namespace

SteppedSupply::SteppedSupply(std::vector<Watts> levels, Seconds step)
    : levels_(std::move(levels)), step_(step) {
  if (levels_.empty()) {
    throw std::invalid_argument("SteppedSupply: empty trace");
  }
  if (!(step_.value() > 0.0)) {
    throw std::invalid_argument("SteppedSupply: step must be > 0");
  }
}

Watts SteppedSupply::at(Seconds t) const {
  if (t.value() < 0.0) return levels_.front();
  auto i = static_cast<std::size_t>(t.value() / step_.value());
  if (i >= levels_.size()) i = levels_.size() - 1;
  return levels_[i];
}

SinusoidSupply::SinusoidSupply(Watts base, Watts amplitude, Seconds period)
    : base_(base), amplitude_(amplitude), period_(period) {
  if (!(period.value() > 0.0)) {
    throw std::invalid_argument("SinusoidSupply: period must be > 0");
  }
}

Watts SinusoidSupply::at(Seconds t) const {
  const double v = base_.value() +
                   amplitude_.value() * std::sin(kTwoPi * t.value() / period_.value());
  return Watts{v > 0.0 ? v : 0.0};
}

SolarSupply::SolarSupply(Watts grid_floor, Watts solar_peak, Seconds day_length,
                         double cloudiness, unsigned long long seed)
    : grid_floor_(grid_floor),
      solar_peak_(solar_peak),
      day_length_(day_length),
      cloudiness_(cloudiness),
      seed_(seed) {
  if (!(day_length.value() > 0.0)) {
    throw std::invalid_argument("SolarSupply: day_length must be > 0");
  }
  if (!(cloudiness >= 0.0 && cloudiness <= 1.0)) {
    throw std::invalid_argument("SolarSupply: cloudiness must be in [0,1]");
  }
}

Watts SolarSupply::at(Seconds t) const {
  const double day = day_length_.value();
  const double phase = std::fmod(t.value(), day) / day;  // [0,1)
  // Daylight between 0.25 and 0.75 of the day; half-sine irradiance bump.
  double solar = 0.0;
  if (phase > 0.25 && phase < 0.75) {
    solar = std::sin((phase - 0.25) / 0.5 * 3.141592653589793);
  }
  // Cloud attenuation changes per 1/48th of a day ("half-hour" blocks).
  const auto block = static_cast<unsigned long long>(t.value() / (day / 48.0));
  const double attenuation = 1.0 - cloudiness_ * hash_unit(seed_, block);
  return grid_floor_ + solar_peak_ * (solar * attenuation);
}

std::unique_ptr<SteppedSupply> paper_fig15_trace() {
  // Testbed draws ~203 W per server at 60% utilization (ServerPowerModel::
  // paper_testbed), so three servers need ~610 W; the idle floors alone need
  // ~478 W, which bounds how deep a plunge can go while servers stay up.
  // The trace averages above the 60%-point with the deficiency episodes
  // Section V-C4 narrates: a deep plunge at t=7 persisting through t=10,
  // and two later dips.  Each episode spans a supply period (eta1 = 4) so
  // the ΔS-sampled controller observes it.
  std::vector<Watts> w;
  const double base[] = {
      680, 682, 678, 684, 679, 681, 683,  // 0..6 comfortable
      610, 612, 610, 614,                 // 7..10 deep plunge, persists
      680, 681, 679, 683,                 // 11..14 recovery
      612, 615,                           // 15..16 second dip
      680, 678, 682, 681, 684, 680,       // 17..22 recovered
      608, 606, 605,                      // 23..25 third dip
      680, 682, 679, 683                  // 26..29 recovered
  };
  w.reserve(std::size(base));
  for (double v : base) w.emplace_back(v);
  return std::make_unique<SteppedSupply>(std::move(w), Seconds{1.0});
}

std::unique_ptr<SteppedSupply> paper_fig19_trace() {
  // Energy-plenty case: mean close to the ~750 W needed for three servers at
  // 100% utilization; mild variation, no deficiency episodes.
  std::vector<Watts> w;
  const double base[] = {760, 750, 770, 745, 755, 765, 740, 750, 760, 755,
                         748, 762, 758, 744, 752, 766, 759, 747, 753, 761,
                         756, 749, 763, 757, 745, 754, 764, 751, 746, 758};
  w.reserve(std::size(base));
  for (double v : base) w.emplace_back(v);
  return std::make_unique<SteppedSupply>(std::move(w), Seconds{1.0});
}

}  // namespace willow::power
