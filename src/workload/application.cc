#include "workload/application.h"

#include <stdexcept>

namespace willow::workload {

const std::vector<AppClass>& simulation_catalog() {
  static const std::vector<AppClass> kCatalog = {
      {"tiny", 1.0}, {"small", 2.0}, {"medium", 5.0}, {"large", 9.0}};
  return kCatalog;
}

const std::vector<AppClass>& testbed_catalog() {
  static const std::vector<AppClass> kCatalog = {
      {"A1", 8.0}, {"A2", 10.0}, {"A3", 15.0}};
  return kCatalog;
}

Application::Application(AppId id, std::size_t class_index, Watts mean_power,
                         Megabytes image_size)
    : id_(id),
      class_index_(class_index),
      mean_power_(mean_power),
      image_size_(image_size) {
  if (id == kInvalidApp) {
    throw std::invalid_argument("Application: id must be nonzero");
  }
  if (!(mean_power.value() >= 0.0)) {
    throw std::invalid_argument("Application: mean_power must be >= 0");
  }
  demand_ = mean_power;
}

void Application::set_service_level(double level) {
  if (!(level >= 0.0 && level <= 1.0)) {
    throw std::invalid_argument(
        "Application::set_service_level: level must be in [0,1]");
  }
  service_level_ = level;
}

}  // namespace willow::workload
