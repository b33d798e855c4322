// willow_cli — run a scenario file through the simulator and report.
//
//   willow_cli <scenario-file> [--set key=value]... [--csv <prefix>]
//                              [--json <file>] [--trace <file>] [--metrics]
//   willow_cli --check <scenario-file>  # parse + validate only, no run
//   willow_cli --describe            # scenario keys + help, from the key table
//   willow_cli --keys                # machine-readable key<TAB>sample table
//   willow_cli --help | -h           # this usage
//
// --set overlays one scenario assignment on top of the file (repeatable;
// later wins).  Keys are validated against scenario_keys(), the table the
// parser dispatches on and --describe/--keys print, so a typo fails before
// the run.
//
// The scenario format is documented in sim/scenario_io.h.  With --csv, the
// recorded time series are written to <prefix>_supply.csv,
// <prefix>_power.csv, <prefix>_migrations.csv, and <prefix>_servers.csv.
// --trace streams every control-plane event (budgets, demand reports, link
// messages, migrations, throttles, UPS activity) to a JSONL file whose bytes
// are identical for any `threads` setting; --metrics prints the run's
// counters, histograms, and per-phase wall-clock timers.
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sink.h"
#include "sim/result_io.h"
#include "sim/scenario_io.h"
#include "sim/simulation.h"
#include "util/table.h"

namespace {

using namespace willow;

void describe() {
  // Rendered from scenario_keys(), the parser's own key table (the
  // docs-drift gate pins it to the manual).  Sample values shown.
  std::cout << "Scenario keys (key = value, '#' comments; sample values "
               "shown, docs/scenario_format.md for defaults):\n";
  for (const auto& k : sim::scenario_keys()) {
    const std::string lhs =
        "  " + std::string(k.key) + " = " + std::string(k.sample);
    std::cout << lhs;
    constexpr std::size_t kHelpColumn = 42;
    if (lhs.size() + 2 > kHelpColumn) {
      std::cout << '\n' << std::string(kHelpColumn, ' ');
    } else {
      std::cout << std::string(kHelpColumn - lhs.size(), ' ');
    }
    std::cout << k.help << '\n';
  }
}

void usage(std::ostream& os) {
  os << "usage: willow_cli <scenario-file> [--set key=value]..."
        " [--csv <prefix>]\n"
        "                  [--json <file>] [--trace <file>]"
        " [--metrics]\n"
        "       willow_cli --check <scenario-file>\n"
        "       willow_cli --describe | --keys\n";
}

void print_keys() {
  for (const auto& k : sim::scenario_keys()) {
    std::cout << k.key << '\t' << k.sample << '\n';
  }
}

bool write_series(const std::string& path, const char* column,
                  const util::TimeSeries& series) {
  util::Table t({"t", column});
  t.set_precision(5);
  for (std::size_t i = 0; i < series.size(); ++i) {
    t.row().add(series.times()[i]).add(series.at(i));
  }
  return t.write_csv_file(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    usage(std::cout);
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "--describe") == 0) {
    describe();
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "--keys") == 0) {
    print_keys();
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "--check") == 0) {
    if (argc != 3) {
      std::cerr << "usage: willow_cli --check <scenario-file>\n";
      return 2;
    }
    try {
      (void)sim::load_scenario_file(argv[2]);
      std::cout << "ok: " << argv[2] << "\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  std::string csv_prefix;
  std::string json_path;
  std::string trace_path;
  std::vector<std::string> overrides;  // "key = value" scenario lines
  bool print_metrics = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--set") == 0 && i + 1 < argc) {
      const std::string assign = argv[++i];
      const std::size_t eq = assign.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--set expects key=value, got '" << assign << "'\n";
        return 2;
      }
      std::string key = assign.substr(0, eq);
      key.erase(0, key.find_first_not_of(" \t"));
      key.erase(key.find_last_not_of(" \t") + 1);
      if (!sim::is_scenario_key(key)) {
        std::cerr << "--set: '" << key
                  << "' is not a scenario key (see --keys)\n";
        return 2;
      }
      overrides.push_back(key + " = " + assign.substr(eq + 1));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else {
      std::cerr << "unknown or incomplete option '" << argv[i] << "'\n";
      return 2;
    }
  }

  try {
    std::ifstream scenario_file(argv[1]);
    if (!scenario_file) {
      std::cerr << "cannot open scenario file: " << argv[1] << "\n";
      return 1;
    }
    std::string scenario_text((std::istreambuf_iterator<char>(scenario_file)),
                              std::istreambuf_iterator<char>());
    for (const auto& line : overrides) {
      scenario_text += '\n';
      scenario_text += line;
    }
    std::istringstream scenario_stream(scenario_text);
    auto cfg = sim::parse_scenario(scenario_stream);
    std::shared_ptr<obs::JsonlTraceSink> trace;
    if (!trace_path.empty()) {
      trace = std::make_shared<obs::JsonlTraceSink>(trace_path);
      cfg.sinks.push_back(trace);
    }
    sim::Simulation simulation(std::move(cfg));
    const auto r = simulation.run();

    std::cout << "ticks recorded:        " << r.ticks << "\n";
    std::cout << "mean supply:           " << r.supply_series.stats().mean()
              << " W\n";
    std::cout << "mean consumption:      " << r.total_power.stats().mean()
              << " W\n";
    std::cout << "max temperature:       " << r.max_temperature_c
              << " degC (violated: " << (r.thermal_violation ? "YES" : "no")
              << ")\n";
    const auto& st = r.controller_stats;
    std::cout << "migrations:            " << st.total_migrations() << " ("
              << st.demand_migrations << " demand, "
              << st.consolidation_migrations << " consolidation; "
              << st.local_migrations << " local / " << st.nonlocal_migrations
              << " non-local)\n";
    std::cout << "quick re-migrations:   " << r.quick_remigrations << "\n";
    std::cout << "drops / revivals:      " << st.drops << " / " << st.revivals
              << "\n";
    std::cout << "degrades / restores:   " << st.degrades << " / "
              << st.restores << "\n";
    std::cout << "sleeps / wakes:        " << st.sleeps << " / " << st.wakes
              << "\n";
    double asleep = 0.0;
    for (const auto& s : r.servers) asleep += s.asleep_fraction;
    std::cout << "mean servers asleep:   " << asleep << "\n";
    std::cout << "mean imbalance:        " << r.imbalance.stats().mean()
              << " W (Eq. 9)\n";
    if (!r.qos_satisfaction.empty()) {
      std::cout << "SLA satisfaction:      "
                << r.qos_satisfaction.stats().mean() * 100.0
                << " % (mean inflation "
                << r.qos_mean_inflation.stats().mean() << "x)\n";
    }
    if (!r.pue.empty()) {
      std::cout << "mean facility power:   "
                << r.facility_power.stats().mean() << " W (PUE "
                << r.pue.stats().mean() << ")\n";
    }
    if (r.remote_flow_traffic.stats().max() > 0.0) {
      std::cout << "remote IPC traffic:    "
                << r.remote_flow_traffic.stats().mean()
                << " units/tick (mean hops "
                << r.mean_flow_hops.stats().mean() << ")\n";
    }

    if (!csv_prefix.empty()) {
      bool ok = write_series(csv_prefix + "_supply.csv", "supply_w",
                             r.supply_series);
      ok &= write_series(csv_prefix + "_power.csv", "consumed_w",
                         r.total_power);
      ok &= write_series(csv_prefix + "_migrations.csv", "migrations",
                         r.migrations_per_tick);
      // Rows are keyed by PMU leaf id (result schema v3's "node"), the
      // stable join key against traces; the 1-based paper number is kept as
      // a convenience column.
      util::Table servers({"node", "server", "mean_power_w", "mean_temp_c",
                           "mean_utilization", "asleep_fraction"});
      for (std::size_t i = 0; i < r.server_nodes.size(); ++i) {
        const auto& m = r.servers[i];  // index-aligned with server_nodes
        servers.row()
            .add(static_cast<long long>(r.server_nodes[i]))
            .add(static_cast<long long>(i + 1))
            .add(m.consumed_power.mean())
            .add(m.temperature.mean())
            .add(m.utilization.mean())
            .add(m.asleep_fraction);
      }
      ok &= servers.write_csv_file(csv_prefix + "_servers.csv");
      std::cout << (ok ? "csv written with prefix " : "csv write FAILED: ")
                << csv_prefix << "\n";
      if (!ok) return 1;
    }
    if (!json_path.empty()) {
      std::ofstream jf(json_path);
      if (!jf) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
      }
      sim::write_result_json(jf, r);
      std::cout << "json written to " << json_path << "\n";
    }
    if (trace) {
      std::cout << "trace written to " << trace_path << " ("
                << trace->lines_written() << " events)\n";
    }
    if (print_metrics) {
      const auto& m = r.metrics;
      util::Table counters({"counter", "value"});
      for (const auto& c : m.counters) {
        counters.row().add(c.name).add(static_cast<long long>(c.value));
      }
      std::cout << "\n";
      counters.print(std::cout);
      if (!m.gauges.empty()) {
        util::Table gauges({"gauge", "value"});
        for (const auto& g : m.gauges) gauges.row().add(g.name).add(g.value);
        std::cout << "\n";
        gauges.print(std::cout);
      }
      if (!m.histograms.empty()) {
        util::Table hists({"histogram", "count", "sum", "mean"});
        for (const auto& h : m.histograms) {
          hists.row().add(h.name).add(static_cast<long long>(h.count))
              .add(h.sum)
              .add(h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0);
        }
        std::cout << "\n";
        hists.print(std::cout);
      }
      if (!m.timers.empty()) {
        util::Table timers({"timer", "count", "total_s"});
        timers.set_precision(6);
        for (const auto& t : m.timers) {
          timers.row().add(t.name).add(static_cast<long long>(t.count))
              .add(t.total_seconds);
        }
        std::cout << "\n";
        timers.print(std::cout);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
