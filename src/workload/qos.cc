#include "workload/qos.h"

#include <algorithm>
#include <stdexcept>

namespace willow::workload {

double response_inflation(double utilization, double max_inflation) {
  if (!(utilization >= 0.0)) {
    throw std::invalid_argument("response_inflation: negative utilization");
  }
  if (!(max_inflation >= 1.0)) {
    throw std::invalid_argument("response_inflation: max_inflation < 1");
  }
  if (utilization >= 1.0) return max_inflation;
  return std::min(max_inflation, 1.0 / (1.0 - utilization));
}

double sla_utilization_limit(double sla_inflation) {
  if (!(sla_inflation > 1.0)) {
    throw std::invalid_argument("sla_utilization_limit: SLA must be > 1");
  }
  return 1.0 - 1.0 / sla_inflation;
}

SlaTracker::SlaTracker(double sla_inflation) : sla_(sla_inflation) {
  if (!(sla_inflation > 1.0)) {
    throw std::invalid_argument("SlaTracker: SLA inflation must be > 1");
  }
}

void SlaTracker::record(double offered_w, double utilization) {
  if (!(offered_w >= 0.0)) {
    throw std::invalid_argument("SlaTracker::record: negative demand");
  }
  if (offered_w == 0.0) return;
  const double inflation = response_inflation(utilization);
  offered_total_ += offered_w;
  if (inflation <= sla_ + 1e-12) met_total_ += offered_w;
  inflation_weighted_ += inflation * offered_w;
  served_total_ += offered_w;
  ++samples_;
}

void SlaTracker::record_denied(double offered_w) {
  if (!(offered_w >= 0.0)) {
    throw std::invalid_argument("SlaTracker::record_denied: negative demand");
  }
  offered_total_ += offered_w;
  ++samples_;
}

double SlaTracker::satisfaction() const {
  return offered_total_ > 0.0 ? met_total_ / offered_total_ : 1.0;
}

double SlaTracker::mean_inflation() const {
  return served_total_ > 0.0 ? inflation_weighted_ / served_total_ : 1.0;
}

void SlaTracker::reset() {
  offered_total_ = met_total_ = inflation_weighted_ = served_total_ = 0.0;
  samples_ = 0;
}

}  // namespace willow::workload
