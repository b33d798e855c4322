// Exponentially weighted moving average — Eq. (4) of the paper:
//
//   CP = alpha * CP_now + (1 - alpha) * CP_old,   0 < alpha < 1.
//
// Used to smooth per-node power-demand observations before the supply side
// divides budgets proportionally to demand.  The paper notes that ARIMA-class
// models are possible but simple exponential smoothing is "often adequate".
#pragma once

#include <stdexcept>

namespace willow::util {

template <typename T>
class Ewma {
 public:
  /// @param alpha smoothing weight of the newest sample, in (0, 1].
  ///        alpha == 1 degenerates to "no smoothing" (pass-through).
  explicit Ewma(double alpha) : alpha_(alpha) {
    if (!(alpha > 0.0) || alpha > 1.0) {
      throw std::invalid_argument("Ewma: alpha must be in (0, 1]");
    }
  }

  /// Feed one observation; returns the updated smoothed value.
  /// The first observation initializes the state (no bias toward zero).
  T update(T sample) {
    if (!seeded_) {
      value_ = sample;
      seeded_ = true;
    } else {
      value_ = alpha_ * sample + (1.0 - alpha_) * value_;
    }
    return value_;
  }

  [[nodiscard]] T value() const { return value_; }
  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Forget all history; the next update() re-seeds.
  void reset() {
    seeded_ = false;
    value_ = T{};
  }

 private:
  // value_ first: per-node sweeps read it next to the node's budget.
  T value_{};
  double alpha_;
  bool seeded_ = false;
};

}  // namespace willow::util
