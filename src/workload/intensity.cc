#include "workload/intensity.h"

#include <cmath>
#include <stdexcept>

namespace willow::workload {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}

ConstantIntensity::ConstantIntensity(double factor) : factor_(factor) {
  if (!(factor >= 0.0)) {
    throw std::invalid_argument("ConstantIntensity: negative factor");
  }
}

DiurnalIntensity::DiurnalIntensity(double base, double amplitude,
                                   util::Seconds period, util::Seconds phase)
    : base_(base), amplitude_(amplitude), period_(period), phase_(phase) {
  if (!(base >= 0.0) || !(amplitude >= 0.0)) {
    throw std::invalid_argument("DiurnalIntensity: negative parameter");
  }
  if (!(period.value() > 0.0)) {
    throw std::invalid_argument("DiurnalIntensity: period must be > 0");
  }
}

double DiurnalIntensity::at(util::Seconds t) const {
  const double v =
      base_ + amplitude_ * std::sin(kTwoPi * (t.value() - phase_.value()) /
                                    period_.value());
  return v > 0.0 ? v : 0.0;
}

TraceIntensity::TraceIntensity(std::vector<double> factors, util::Seconds step)
    : factors_(std::move(factors)), step_(step) {
  if (factors_.empty()) {
    throw std::invalid_argument("TraceIntensity: empty trace");
  }
  if (!(step.value() > 0.0)) {
    throw std::invalid_argument("TraceIntensity: step must be > 0");
  }
  for (double f : factors_) {
    if (!(f >= 0.0)) throw std::invalid_argument("TraceIntensity: negative factor");
  }
}

double TraceIntensity::at(util::Seconds t) const {
  if (t.value() < 0.0) return factors_.front();
  auto i = static_cast<std::size_t>(t.value() / step_.value());
  if (i >= factors_.size()) i = factors_.size() - 1;
  return factors_[i];
}

}  // namespace willow::workload
