#include "obs/event.h"

#include <sstream>

namespace willow::obs {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kBudgetDirective: return "budget_directive";
    case EventType::kDemandReport: return "demand_report";
    case EventType::kLinkMessage: return "link_message";
    case EventType::kMigration: return "migration";
    case EventType::kMigrationLanded: return "migration_landed";
    case EventType::kThermalThrottle: return "thermal_throttle";
    case EventType::kUpsCharge: return "ups_charge";
    case EventType::kUpsDischarge: return "ups_discharge";
    case EventType::kDrop: return "drop";
    case EventType::kDegrade: return "degrade";
    case EventType::kRevive: return "revive";
    case EventType::kRestore: return "restore";
    case EventType::kSleep: return "sleep";
    case EventType::kWake: return "wake";
    case EventType::kLinkDrop: return "link_drop";
    case EventType::kLinkDefer: return "link_defer";
    case EventType::kSensorFault: return "sensor_fault";
    case EventType::kNodeDown: return "node_down";
    case EventType::kNodeUp: return "node_up";
    case EventType::kFallbackBudget: return "fallback_budget";
    case EventType::kStaleTimeout: return "stale_timeout";
    case EventType::kResyncComplete: return "resync_complete";
    case EventType::kUpsFail: return "ups_fail";
    case EventType::kUpsRestore: return "ups_restore";
  }
  return "unknown";
}

const char* to_string(Reason reason) {
  switch (reason) {
    case Reason::kNone: return "none";
    case Reason::kSupplyDeficit: return "supply_deficit";
    case Reason::kThermal: return "thermal";
    case Reason::kConsolidation: return "consolidation";
    case Reason::kShedding: return "shedding";
  }
  return "unknown";
}

const char* to_string(LinkDirection direction) {
  return direction == LinkDirection::kUp ? "up" : "down";
}

std::string describe(const Event& e) {
  std::ostringstream os;
  os << "t=" << e.tick << ' ' << to_string(e.type);
  if (e.node != kNoNode) os << " node=" << e.node;
  if (e.node2 != kNoNode) os << " node2=" << e.node2;
  if (e.app != 0) os << " app=" << e.app;
  if (e.reason != Reason::kNone) os << " reason=" << to_string(e.reason);
  if (e.type == EventType::kLinkMessage || e.type == EventType::kLinkDrop ||
      e.type == EventType::kLinkDefer) {
    os << " dir=" << to_string(e.direction);
  }
  os << " value=" << e.value;
  return os.str();
}

}  // namespace willow::obs
