#include "workload/flows.h"

#include <stdexcept>

namespace willow::workload {

void FlowSet::add(Flow flow) {
  if (flow.a == kInvalidApp || flow.b == kInvalidApp || flow.a == flow.b) {
    throw std::invalid_argument("FlowSet::add: invalid endpoints");
  }
  if (!(flow.traffic_units >= 0.0)) {
    throw std::invalid_argument("FlowSet::add: negative traffic");
  }
  flows_.push_back(flow);
}

double FlowSet::total_units() const {
  double total = 0.0;
  for (const auto& f : flows_) total += f.traffic_units;
  return total;
}

FlowSet chain_flows(const std::vector<std::vector<AppId>>& groups,
                    double units) {
  FlowSet set;
  for (const auto& group : groups) {
    for (std::size_t i = 0; i + 1 < group.size(); ++i) {
      set.add({group[i], group[i + 1], units});
    }
  }
  return set;
}

}  // namespace willow::workload
