#include "fault/fault.h"

namespace willow::fault {

namespace {

void check_probability(std::vector<std::string>& out, const std::string& field,
                       double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    out.push_back(field + ": probability must be in [0, 1]");
  }
}

void check_sensor(std::vector<std::string>& out, const std::string& prefix,
                  const SensorFaultKnobs& k) {
  check_probability(out, prefix + ".stuck_probability", k.stuck_probability);
  check_probability(out, prefix + ".bias_probability", k.bias_probability);
  check_probability(out, prefix + ".dropout_probability",
                    k.dropout_probability);
}

}  // namespace

bool FaultConfig::server_faults_enabled() const {
  return power_sensor.any() || temp_sensor.any() || crash_probability > 0.0 ||
         !crash_events.empty();
}

bool FaultConfig::enabled() const {
  return link.any() || server_faults_enabled() || !ups_failures.empty();
}

std::vector<std::string> FaultConfig::validate(
    const std::string& prefix) const {
  std::vector<std::string> out;
  check_probability(out, prefix + "link.up_loss", link.up_loss);
  check_probability(out, prefix + "link.up_delay", link.up_delay);
  check_probability(out, prefix + "link.up_duplicate", link.up_duplicate);
  check_probability(out, prefix + "link.down_loss", link.down_loss);
  check_probability(out, prefix + "link.down_duplicate", link.down_duplicate);
  check_sensor(out, prefix + "power_sensor", power_sensor);
  check_sensor(out, prefix + "temp_sensor", temp_sensor);
  check_probability(out, prefix + "crash_probability", crash_probability);
  if (!(sensor_fault_mean_ticks >= 1.0)) {
    out.push_back(prefix +
                  "sensor_fault_mean_ticks: mean episode must be >= 1 tick");
  }
  if (crash_down_ticks < 1) {
    out.push_back(prefix + "crash_down_ticks: must be >= 1");
  }
  for (const auto& e : crash_events) {
    if (e.tick < 0) {
      out.push_back(prefix + "crash_event: tick must be >= 0");
    }
    if (e.last_server < e.first_server) {
      out.push_back(prefix +
                    "crash_event: last_server must be >= first_server");
    }
    if (e.down_ticks < 1) {
      out.push_back(prefix + "crash_event: down_ticks must be >= 1");
    }
  }
  for (const auto& w : ups_failures) {
    if (w.first_tick < 0 || w.last_tick < w.first_tick) {
      out.push_back(prefix +
                    "ups_failure: need 0 <= first_tick <= last_tick");
    }
  }
  return out;
}

}  // namespace willow::fault
