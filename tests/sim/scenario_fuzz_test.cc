// Parser fuzz over the scenario key table: every key, fed hostile values
// alone and after its own sample, either fails with std::runtime_error or
// yields a configuration that sim::Simulation constructs.  The inputs are a
// fixed list, so the test is deterministic.
#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scenario_io.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

/// Fleets above this are not constructed: the property is about the parser
/// and validation, not about building a large plant.
constexpr std::size_t kMaxFleet = 2000;

/// Hostile right-hand sides: empty, signs, non-finite and extreme numbers,
/// the neighbours of 2^63 and 2^31, hex, a word, and 1 to 6 words.
std::vector<std::string> hostile_tokens() {
  std::vector<std::string> tokens = {
      "", "-1", "0", "nan", "inf", "1e308", "-1e308",
      "9223372036854775806", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "2147483646",
      "2147483647", "2147483648", "-2147483648", "-2147483649", "0x10",
      "abc"};
  std::string words;
  for (int n = 1; n <= 6; ++n) {
    words += n == 1 ? "1" : " 1";
    tokens.push_back(words);
  }
  for (const auto& k : scenario_keys()) tokens.emplace_back(k.sample);
  return tokens;
}

/// Checks the property on one input; returns whether the parser accepted it.
bool parse_then_construct(const std::string& text) {
  std::optional<SimConfig> cfg;
  try {
    std::istringstream in(text);
    cfg.emplace(parse_scenario(in));
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse threw a non-runtime_error (" << e.what()
                  << ") on:\n" << text;
    return false;
  }
  if (cfg->datacenter.layout.total_servers() > kMaxFleet) return true;
  cfg->threads = 1;  // never start a thread pool
  try {
    Simulation sim(std::move(*cfg));
  } catch (const std::exception& e) {
    ADD_FAILURE() << "accepted scenario does not construct (" << e.what()
                  << "):\n" << text;
  }
  return true;
}

TEST(ScenarioFuzz, EveryKeyRejectsOrConstructs) {
  const auto tokens = hostile_tokens();
  int inputs = 0;
  int accepted = 0;
  for (const auto& k : scenario_keys()) {
    const std::string key(k.key);
    const std::string after_sample =
        key + " = " + std::string(k.sample) + "\n";
    for (const auto& token : tokens) {
      const std::string line = key + " = " + token + "\n";
      for (const auto& text : {line, after_sample + line}) {
        ++inputs;
        if (parse_then_construct(text)) ++accepted;
      }
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, inputs);
}

TEST(ScenarioFuzz, OversizedLayoutsFailBeforeTheHotZoneIsSized) {
  // Each dimension set past the NodeId range, then a hot zone: the parser
  // must fail with a line number, never allocate a per-server vector.
  int rejected = 0;
  for (const char* key : {"zones", "racks_per_zone", "servers_per_rack"}) {
    for (const char* token : {"2147483648", "4294967296",
                              "9223372036854775807",
                              "18446744073709551615"}) {
      const std::string text = std::string(key) + " = " + token +
                               "\nhot_zone_servers = 4\n";
      try {
        std::istringstream in(text);
        parse_scenario(in);
        ADD_FAILURE() << "accepted:\n" << text;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("scenario line"),
                  std::string::npos)
            << e.what();
        ++rejected;
      }
    }
  }
  EXPECT_EQ(rejected, 12);
}

}  // namespace
}  // namespace willow::sim
