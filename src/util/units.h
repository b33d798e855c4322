// Strong unit types for the physical quantities Willow reasons about.
//
// The control scheme mixes power budgets (W), temperatures (degrees C),
// energies (J) and durations (s) in the same expressions; a mixed-up operand
// is a silent control bug, not a crash.  Each quantity is therefore a
// distinct arithmetic wrapper: same-unit addition/subtraction and scaling by
// dimensionless doubles are allowed, cross-unit arithmetic is a compile
// error.  The few physically meaningful cross-unit products (W x s = J,
// J / s = W) are provided as explicit free operators.
#pragma once

#include <bit>
#include <compare>
#include <cstdint>
#include <ostream>

namespace willow::util {

/// CRTP-free tagged quantity: a double with unit identity.
template <typename Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  /// Raw magnitude in the unit's base scale (W, degC, s, J, ...).
  [[nodiscard]] constexpr double value() const { return value_; }

  constexpr Quantity& operator+=(Quantity o) {
    value_ += o.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    value_ -= o.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double k) {
    value_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(double k) {
    value_ /= k;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator-(Quantity a) { return Quantity{-a.value_}; }
  friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.value_ * k};
  }
  friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{k * a.value_};
  }
  friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.value_ / k};
  }
  /// Ratio of two same-unit quantities is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }

  friend constexpr auto operator<=>(Quantity, Quantity) = default;
  // The ordering operators compare the raw doubles: the same answers as the
  // defaulted <=> (unordered NaN compares false), but the compiler keeps
  // them as single compares, and the per-server sweeps stay branch-free.
  friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.value_ >= b.value_;
  }

 private:
  double value_ = 0.0;
};

struct WattsTag {};
struct CelsiusTag {};
struct SecondsTag {};
struct JoulesTag {};
struct MegabytesTag {};

/// Electrical power (also used for power budgets and demands).
using Watts = Quantity<WattsTag>;
/// Temperature; we follow the paper and use degrees Celsius throughout.
using Celsius = Quantity<CelsiusTag>;
/// Durations and simulation time.
using Seconds = Quantity<SecondsTag>;
/// Energy.
using Joules = Quantity<JoulesTag>;
/// Data volume (VM images, migration payloads).
using Megabytes = Quantity<MegabytesTag>;

/// Energy = power x time.
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules{p.value() * t.value()};
}
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }
/// Average power = energy / time.
constexpr Watts operator/(Joules e, Seconds t) {
  return Watts{e.value() / t.value()};
}

// keep_or_zero, positive_part, min and max select between raw doubles with
// a mask, minsd or maxsd instead of a branch: the per-server sweeps feed them
// signs that no predictor can guess.  Each returns the same bits as the
// obvious select: [x]+ is +0 for x <= 0 (and for NaN), and min/max return
// their first argument when neither compares less.

/// `x` when `keep`, else +0.  Adding the +0 to a sum that cannot be -0, or
/// taking the max of it with values >= +0, leaves the result bitwise
/// unchanged, so a sweep can mask an entry instead of skipping it.
constexpr double keep_or_zero(bool keep, double x) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) &
                               -static_cast<std::uint64_t>(keep));
}

/// [x]+ operator from Eq. (5)/(6): negative differences are treated as zero.
template <typename Tag>
constexpr Quantity<Tag> positive_part(Quantity<Tag> q) {
  return Quantity<Tag>{keep_or_zero(q.value() > 0.0, q.value())};
}

template <typename Tag>
constexpr Quantity<Tag> min(Quantity<Tag> a, Quantity<Tag> b) {
  return Quantity<Tag>{a.value() < b.value() ? a.value() : b.value()};
}
template <typename Tag>
constexpr Quantity<Tag> max(Quantity<Tag> a, Quantity<Tag> b) {
  return Quantity<Tag>{a.value() < b.value() ? b.value() : a.value()};
}

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Quantity<Tag> q) {
  return os << q.value();
}

namespace literals {
constexpr Watts operator""_W(long double v) {
  return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_W(unsigned long long v) {
  return Watts{static_cast<double>(v)};
}
constexpr Celsius operator""_degC(long double v) {
  return Celsius{static_cast<double>(v)};
}
constexpr Celsius operator""_degC(unsigned long long v) {
  return Celsius{static_cast<double>(v)};
}
constexpr Seconds operator""_s(long double v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds{static_cast<double>(v)};
}
constexpr Joules operator""_J(long double v) {
  return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_J(unsigned long long v) {
  return Joules{static_cast<double>(v)};
}
constexpr Megabytes operator""_MB(long double v) {
  return Megabytes{static_cast<double>(v)};
}
constexpr Megabytes operator""_MB(unsigned long long v) {
  return Megabytes{static_cast<double>(v)};
}
}  // namespace literals

}  // namespace willow::util
