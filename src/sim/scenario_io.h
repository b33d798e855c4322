// Text scenario descriptions -> SimConfig.
//
// Scenarios are small "key = value" files so experiments can be versioned
// and rerun without recompiling (the willow_cli tool consumes them):
//
//     # a hot-zone sweep point
//     utilization = 0.6
//     zones = 2
//     racks_per_zone = 3
//     servers_per_rack = 3
//     hot_zone_servers = 4        # last N servers sit in the hot zone
//     hot_ambient_c = 40
//     margin_w = 1.5
//     supply = solar 220 350 48 0.4 11
//
// Unknown keys and malformed values fail loudly with the line number.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.h"

namespace willow::sim {

/// Highest scenario schema version this parser understands.  A scenario may
/// declare `schema_version = N` (ideally as its first line); files without
/// the key are treated as version 1 (the original unversioned dialect, which
/// version 2 reads unchanged — 2 only added the stamp itself).  Declaring a
/// newer version than this fails loudly rather than misreading the file.
inline constexpr long kScenarioSchemaVersion = 2;

/// Parse a scenario from a stream.  Throws std::runtime_error (with the line
/// number) on unknown keys, malformed values, out-of-range settings, or an
/// unsupported schema_version.
SimConfig parse_scenario(std::istream& in);

/// A scenario being read; defined in scenario_io.cc.
struct ScenarioDraft;

/// One scenario key: its only declaration.  parse_scenario() dispatches on
/// the key to `set`, which reads the value with the key's type and range;
/// willow_cli's --keys, --describe and --set read the same table.  The
/// samples are mutually consistent: a file made of every `key = sample` line
/// parses and validates.  scripts/check_docs_drift.sh diffs the key set
/// against docs/scenario_format.md in both directions.
struct ScenarioKey {
  std::string_view key;
  std::string_view sample;
  std::string_view help;
  void (*set)(ScenarioDraft& draft);
};

/// Every key parse_scenario() accepts, in the section order of
/// docs/scenario_format.md.
const std::vector<ScenarioKey>& scenario_keys();

/// True iff `key` is in scenario_keys().
bool is_scenario_key(const std::string& key);

/// Parse a scenario file; throws std::runtime_error if unreadable.
SimConfig load_scenario_file(const std::string& path);

}  // namespace willow::sim
