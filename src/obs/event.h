// Typed observability events — the vocabulary of the Willow telemetry layer.
//
// Every externally meaningful action in a run — a budget directive pushed
// down the PMU tree, a demand report flowing up, a migration with its reason
// code, a thermal throttle, UPS charge/discharge, a control message crossing
// a PMU link — is one Event.  Events are trivially copyable values: emitters
// fill the fields that apply and leave the rest at their defaults, and sinks
// decide what to do with them (see obs/sink.h).  The layer sits below hier/core/sim
// so every subsystem can emit without dependency cycles; node ids are raw
// 32-bit values (hier::NodeId is a typedef of the same width).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace willow::obs {

/// Sentinel matching hier::kNoNode (obs cannot include hier headers).
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

enum class EventType : std::uint8_t {
  kBudgetDirective,   ///< node's budget set by the supply divider (TP_{l,i})
  kDemandReport,      ///< node reported demand up the tree (CP observation)
  kLinkMessage,       ///< one control message crossed the node<->parent link
  kMigration,         ///< application migration applied (or transfer started)
  kMigrationLanded,   ///< latency mode: in-flight transfer completed
  kThermalThrottle,   ///< per-ΔD clamp of a server budget to its hard limit
  kUpsCharge,         ///< UPS absorbed surplus into the battery
  kUpsDischarge,      ///< UPS covered a supply deficit from the battery
  kDrop,              ///< application shut down (degraded mode)
  kDegrade,           ///< application service level reduced
  kRevive,            ///< dropped application brought back
  kRestore,           ///< degraded application restored to full service
  kSleep,             ///< server consolidated to sleep
  kWake,              ///< server woken for unplaceable demand
  // Fault-injection and degraded-mode vocabulary (docs/fault_model.md).
  kLinkDrop,          ///< a control message was lost on a PMU link
  kLinkDefer,         ///< a demand report was delayed (delivered next sweep)
  kSensorFault,       ///< sensor override changed (aux encodes kind+mode)
  kNodeDown,          ///< server crashed; its subtree goes dark
  kNodeUp,            ///< crashed server restarted
  kFallbackBudget,    ///< conservative budget clamp on a dark server
  kStaleTimeout,      ///< demand reports stale past the timeout; decay begins
  kResyncComplete,    ///< control plane re-dirtied after a node recovery
  kUpsFail,           ///< UPS failure window opened (battery unavailable)
  kUpsRestore,        ///< UPS failure window closed
};

/// Why a migration (or shedding action) happened — the paper's Sec. IV
/// adaptation triggers, made explicit per event.
enum class Reason : std::uint8_t {
  kNone,           ///< not applicable
  kSupplyDeficit,  ///< budget shortfall from the supply division (Sec. IV-D)
  kThermal,        ///< thermal/circuit hard-limit clamp forced the move
  kConsolidation,  ///< low-utilization drain (Sec. IV-C/E)
  kShedding,       ///< unplaceable demand degraded/dropped (degraded mode)
};

/// Direction of a kLinkMessage relative to the tree (Fig. 2).
enum class LinkDirection : std::uint8_t {
  kUp,    ///< demand report, child -> parent
  kDown,  ///< budget directive, parent -> child
};

struct Event {
  EventType type = EventType::kBudgetDirective;
  long tick = 0;
  std::uint32_t node = kNoNode;   ///< primary node (server/PMU)
  std::uint32_t node2 = kNoNode;  ///< secondary node (migration target/parent)
  std::uint64_t app = 0;          ///< application id; 0 = not app-scoped
  Reason reason = Reason::kNone;
  LinkDirection direction = LinkDirection::kUp;  ///< kLinkMessage only
  double value = 0.0;  ///< primary quantity (W moved / new budget / J stored)
  double aux = 0.0;    ///< secondary quantity (previous budget, raw W, ...)
};

/// Stable lowercase identifiers used in JSONL traces and tooling.
[[nodiscard]] const char* to_string(EventType type);
[[nodiscard]] const char* to_string(Reason reason);
[[nodiscard]] const char* to_string(LinkDirection direction);

/// Human-readable one-liner (CLI, debugging).
[[nodiscard]] std::string describe(const Event& event);

}  // namespace willow::obs
