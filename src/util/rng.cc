#include "util/rng.h"

#include <math.h>  // lgamma_r

#include <cmath>

namespace willow::util {

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

PoissonParams::PoissonParams(double mean) : mean(mean) {
  // poisson_distribution<int>::param_type::_M_initialize, libstdc++ 12; the
  // long double literals round to double exactly as they do there.
  if (mean >= 12) {
    const double m = std::floor(mean);
    lm_thr = std::log(mean);
    lfm = log_gamma(m + 1);
    sm = std::sqrt(m);
    const double pi_4 = 0.7853981633974483096156608458198757L;
    const double dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
    d = std::round(std::max<double>(6.0, std::min(m, dx)));
    const double cx = 2 * m + d;
    scx = std::sqrt(cx / 2);
    one_cx = 1 / cx;
    c2b = std::sqrt(pi_4 * cx) * std::exp(one_cx);
    cb = 2 * cx * std::exp(-d * one_cx * (1 + d / 2)) / d;
  } else {
    lm_thr = std::exp(-mean);
  }
}

}  // namespace willow::util
