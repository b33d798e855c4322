// tickbench: per-tick wall latency of the untouched sim::Simulation::run(),
// measured from outside, plus a traced driver that splits each tick into the
// layers it calls.
//
//   tickbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Every run starts with a reference Simulation (no hooks).  Each timed
// repetition must reproduce its simulated statistics bit for bit.
// --trace 0 times repetitions of Simulation::run() through clock-reading
// intensity/supply profiles and reports the end-to-end metrics.  --trace 1
// alternates those with the traced driver (driver.h) and reports per-layer
// self times and counts.  Repetitions go on until about S seconds have
// passed and at least two have run.  The last stdout line is
// "REPORT <json>"; the exit code is 1 when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "power/supply.h"
#include "tickbench.h"
#include "util/rng.h"
#include "workload/intensity.h"

namespace willow::tickbench {
namespace {

/// A p99 needs at least ten samples beyond it, even from one repetition.
constexpr long kMinMeasuredTicks = 1000;
/// Set-up is a median over at least this many repetitions.
constexpr int kMinReps = 2;
/// Consecutive measured ticks per window of the best-window statistics.
constexpr std::size_t kWindowTicks = 100;
/// No repetition starts after this many seconds, so a run stays well inside
/// a 180 s limit on a slow host.
constexpr double kHardStopS = 120.0;

// Intensity profile that timestamps each call and returns what
// Simulation::run uses without a profile (1.0).  run() calls it exactly once
// per tick, between the fault apply and the demand refresh, so consecutive
// stamps are one tick apart.
class ClockIntensity final : public workload::IntensityProfile {
 public:
  explicit ClockIntensity(std::size_t ticks) { stamps_.reserve(ticks); }
  [[nodiscard]] double at(util::Seconds) const override {
    // The hook runs before the stamp, so its cost lands in the warm-up.
    if (hook_ && stamps_.size() == hook_call_) hook_();
    stamps_.push_back(now_ns());
    return 1.0;
  }
  /// Run `fn` just before stamping call number `call` (0-based).
  void before_call(std::size_t call, std::function<void()> fn) {
    hook_call_ = call;
    hook_ = std::move(fn);
  }
  [[nodiscard]] const std::vector<std::int64_t>& stamps() const {
    return stamps_;
  }

 private:
  mutable std::vector<std::int64_t> stamps_;
  std::size_t hook_call_ = 0;
  std::function<void()> hook_;
};

// Supply profile that counts its calls and returns the wrapped profile's
// value or, without one, the "plenty" supply Simulation::run would use.
// Installing it on every workload proves the supply path value-neutral too.
class CountingSupply final : public power::SupplyProfile {
 public:
  explicit CountingSupply(std::shared_ptr<const power::SupplyProfile> inner)
      : inner_(std::move(inner)) {}
  void set_plenty(util::Watts w) { plenty_ = w; }
  [[nodiscard]] util::Watts at(util::Seconds t) const override {
    ++calls_;
    return inner_ ? inner_->at(t) : plenty_;
  }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  std::shared_ptr<const power::SupplyProfile> inner_;
  util::Watts plenty_{0.0};
  mutable std::size_t calls_ = 0;
};

// The supply Simulation::run uses when SimConfig::supply is null: the sum of
// nameplates, in the same order.
util::Watts plenty_supply(sim::Simulation& simulation) {
  util::Watts plenty{0.0};
  auto& dc = simulation.datacenter();
  for (hier::NodeId s : dc.servers) {
    plenty += dc.cluster.server(s).thermal().params().nameplate;
  }
  return plenty;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A fixed CPU-bound loop (integer mixing, no memory traffic): the same work
// on every run, so its time follows host speed alone.  Median of 5, in ms.
double host_probe_ms() {
  std::vector<double> times;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < 4'000'000; ++i) {
      x = util::splitmix64_mix(x + i);
    }
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  if (x == 42) std::cout << "";  // keeps the loop's result live
  return median(times);
}

/// Pass/fail per named check; the first failure's detail is kept.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail = "") {
    for (auto& c : items_) {
      if (c.name != name) continue;
      if (c.ok && !ok) c.detail = detail;
      c.ok = c.ok && ok;
      return;
    }
    items_.push_back({name, ok, ok ? "" : detail});
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(items_.begin(), items_.end(),
                       [](const Item& c) { return c.ok; });
  }
  struct Item {
    std::string name;
    bool ok;
    std::string detail;
  };
  [[nodiscard]] const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

void check_conserved(Checks& checks, const char* what, AppCensus initial,
                     AppCensus final_census, const sim::SimResult& r) {
  const std::uint64_t want =
      initial.total() + r.churn_arrivals - r.churn_departures;
  checks.add("apps_conserved", final_census.total() == want,
             std::string(what) + ": hosted+dropped " +
                 std::to_string(final_census.total()) + ", want " +
                 std::to_string(want));
}

struct Reference {
  sim::SimResult result;
  Signature sig;
};

Reference run_reference(const sim::SimConfig& cfg, Checks& checks) {
  sim::Simulation simulation(cfg);
  const AppCensus initial = count_apps(simulation.datacenter());
  Reference ref;
  ref.result = simulation.run();
  const AppCensus final_census = count_apps(simulation.datacenter());
  ref.sig = signature(ref.result, initial, final_census);
  check_conserved(checks, "reference", initial, final_census, ref.result);
  return ref;
}

/// One timed repetition of the untouched Simulation::run().
struct HookedRep {
  double setup_s = 0.0;
  std::vector<double> tick_ms;
  Counters window;
};

/// The quietest stretches of host time over timed repetitions.  Host
/// interference comes in bursts shorter than a second: within one repetition
/// of settled_10k the median tick of consecutive 50-tick windows swung
/// between 1.70 and 2.33 ms while each window's fastest tick stayed within
/// 1.58-1.70 ms.  The work per tick is fixed and interference only adds
/// time, so the best windows measure the program; a code change moves every
/// window and still shows.
struct BestWindow {
  double ticks_per_s = 0.0;  ///< kWindowTicks / least window wall time
  double p50_ms = 0.0;       ///< least window median tick
  std::size_t windows = 0;

  void add(const std::vector<double>& tick_ms) {
    for (std::size_t i = 0; i + kWindowTicks <= tick_ms.size();
         i += kWindowTicks) {
      const std::vector<double> w(tick_ms.begin() + static_cast<long>(i),
                                  tick_ms.begin() +
                                      static_cast<long>(i + kWindowTicks));
      double wall_ms = 0.0;
      for (const double t : w) wall_ms += t;
      const double rate = static_cast<double>(kWindowTicks) * 1e3 / wall_ms;
      const double p50 = percentile(w, 0.5);
      ticks_per_s = windows == 0 ? rate : std::max(ticks_per_s, rate);
      p50_ms = windows == 0 ? p50 : std::min(p50_ms, p50);
      ++windows;
    }
  }
};

HookedRep run_hooked(const sim::SimConfig& base, const Workload& w,
                     const Signature& want, Checks& checks) {
  sim::SimConfig cfg = base;
  const auto ticks =
      static_cast<std::size_t>(cfg.warmup_ticks + cfg.measure_ticks);
  const auto intensity = std::make_shared<ClockIntensity>(ticks);
  const auto supply = std::make_shared<CountingSupply>(cfg.supply);
  cfg.intensity = intensity;
  cfg.supply = supply;
  const auto first = static_cast<std::size_t>(w.warmup_ticks);
  const auto measured = static_cast<std::size_t>(w.measured_ticks);

  HookedRep rep;
  Counters start;
  const std::int64_t t0 = now_ns();
  sim::Simulation simulation(std::move(cfg));
  supply->set_plenty(plenty_supply(simulation));
  intensity->before_call(first, [&] {
    start = counters(simulation.event_bus().metrics().snapshot(),
                     simulation.controller().stats());
  });
  const AppCensus initial = count_apps(simulation.datacenter());
  const sim::SimResult result = simulation.run();

  const auto& st = intensity->stamps();
  const bool once = st.size() == ticks && supply->calls() == ticks;
  checks.add("hooks_once_per_tick", once,
             "intensity/supply calls " + std::to_string(st.size()) + "/" +
                 std::to_string(supply->calls()) + ", ticks " +
                 std::to_string(ticks));
  if (!once) return rep;
  rep.setup_s = static_cast<double>(st[first] - t0) * 1e-9;
  for (std::size_t k = first; k < first + measured; ++k) {
    rep.tick_ms.push_back(static_cast<double>(st[k + 1] - st[k]) * 1e-6);
  }
  rep.window = delta(counters(result.metrics, result.controller_stats), start);

  const AppCensus final_census = count_apps(simulation.datacenter());
  const std::string d =
      diff(want, signature(result, initial, final_census));
  checks.add("hook_neutral", d.empty(),
             "hooked run differs from the reference:\n" + d);
  check_conserved(checks, "hooked", initial, final_census, result);
  return rep;
}

/// Per-tick self times of the traced runs, pooled.
struct LayerTimes {
  std::vector<double> tick_ms;
  std::array<std::vector<double>, kLayerCount> layer_ms;
  std::vector<double> unattributed_ms;
  double covered_ms = 0.0;
  double total_ms = 0.0;

  void add(const std::vector<Span>& spans) {
    std::array<double, kLayerCount> acc{};
    for (const Span& s : spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      if (s.layer != kTickSpan) {
        acc[static_cast<std::size_t>(s.layer)] += ms;
        continue;
      }
      double covered = 0.0;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        layer_ms[l].push_back(acc[l]);
        covered += acc[l];
      }
      tick_ms.push_back(ms);
      unattributed_ms.push_back(ms - covered);
      covered_ms += covered;
      total_ms += ms;
      acc.fill(0.0);
    }
  }
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tickbench: cannot write " << path << '\n';
    return;
  }
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    const bool tick = s.layer == kTickSpan;
    out << "{\"id\":" << s.tick << ",\"name\":\""
        << (tick ? "sim.tick" : kLayerNames[static_cast<std::size_t>(s.layer)])
        << "\",\"parent\":" << (tick ? "null" : "\"sim.tick\"")
        << ",\"start_us\":" << (s.start_ns - origin) / 1000
        << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000 << "}\n";
  }
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Ordered (name, value) list, rendered as a JSON object.
using Values = std::vector<std::pair<std::string, double>>;

std::string object(const Values& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + number(v);
  }
  return out + "}";
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

int usage(const std::string& why) {
  std::cerr << "tickbench: " << why
            << "\nusage: tickbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\nworkloads:";
  for (const auto& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  if (w.measured_ticks < kMinMeasuredTicks) {
    std::cerr << "tickbench: " << w.name << " measures fewer than "
              << kMinMeasuredTicks << " ticks per repetition\n";
    return 2;
  }
  const sim::SimConfig cfg = make_config(w, args.seed);
  const double probe_start = host_probe_ms();
  Checks checks;

  long attempted = 0;
  Values metrics;
  Values samples;
  int reps = 0;
  try {
    const Reference ref = run_reference(cfg, checks);
    if (w.thermally_safe) {
      checks.add("no_thermal_violation", !ref.result.thermal_violation,
                 "a server exceeded its thermal limit");
    }

    std::vector<HookedRep> hooked;
    std::vector<double> hooked_ms;
    LayerTimes traced;
    TracedRun last_traced;
    const std::int64_t begin = now_ns();
    const auto elapsed_s = [&] {
      return static_cast<double>(now_ns() - begin) * 1e-9;
    };
    // A repetition starts when it is expected to end no more than half its
    // length past S, so a run measures close to S seconds.
    double rep_s = 0.0;
    while (elapsed_s() < kHardStopS) {
      const double rep_start_s = elapsed_s();
      if (reps >= kMinReps && rep_start_s + 0.5 * rep_s > args.seconds) break;
      ++reps;
      attempted += w.measured_ticks;
      HookedRep rep = run_hooked(cfg, w, ref.sig, checks);
      hooked_ms.insert(hooked_ms.end(), rep.tick_ms.begin(), rep.tick_ms.end());
      hooked.push_back(std::move(rep));
      if (args.trace) {
        attempted += w.measured_ticks;
        last_traced = run_traced(cfg);
        const std::string d = diff(
            ref.sig, signature(last_traced.result, last_traced.initial,
                               last_traced.final_census));
        checks.add("driver_equivalent", d.empty(),
                   "traced driver differs from Simulation::run:\n" + d);
        check_conserved(checks, "traced", last_traced.initial,
                        last_traced.final_census, last_traced.result);
        traced.add(last_traced.spans);
      }
      rep_s = elapsed_s() - rep_start_s;
    }

    // Does the workload exercise what its rationale says?  Judged on the
    // measured window of the first timed repetition.
    const Counters& win = hooked.front().window;
    const auto positive = [&](const std::string& key) {
      checks.add("exercises:" + key, get(win, key) > 0.0,
                 key + " did not move in the measured window");
    };
    if (w.name == "churn_10k") {
      positive("controller.wakes");
      positive("control.consol_drained");
    } else if (w.name == "settled_10k") {
      const double skipped = get(win, "control.nodes_skipped");
      const double skip_ratio =
          ratio(skipped, skipped + get(win, "control.nodes_reaggregated"));
      checks.add("exercises:hier.skip_ratio", skip_ratio >= 0.95,
                 "skip ratio " + number(skip_ratio) + " < 0.95");
    } else if (w.name == "deficit_faults_2k") {
      positive("controller.demand_migrations");
      positive("fault.directive_losses");
      positive("fault.directive_retries");
      positive("fault.stale_timeouts");
    }

    if (!args.trace) {
      // Throughput and median come from the best 100-tick windows (see
      // BestWindow); the p99 pools every measured tick, since a window has
      // too few samples for it; set-up is the median over repetitions.
      BestWindow best;
      std::vector<double> setup_s;
      for (const auto& rep : hooked) {
        BestWindow own;
        own.add(rep.tick_ms);
        best.add(rep.tick_ms);
        setup_s.push_back(rep.setup_s);
        std::cout << "  repetition " << setup_s.size()
                  << ": best-window ticks_per_s " << number(own.ticks_per_s)
                  << " tick_p50_ms " << number(own.p50_ms) << "; all ticks p50 "
                  << number(median(rep.tick_ms)) << " p99 "
                  << number(percentile(rep.tick_ms, 0.99)) << "; setup_s "
                  << number(rep.setup_s) << '\n';
      }
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      metrics = {
          {"ticks_per_s", best.ticks_per_s},
          {"tick_p50_ms", best.p50_ms},
          {"tick_p99_ms", percentile(hooked_ms, 0.99)},
          {"setup_s", median(setup_s)},
          {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
          {"it_power_w", ref.result.total_power.stats().mean()},
          {"migrations_per_tick", ref.result.migrations_per_tick.stats().mean()},
          {"max_temp_c", ref.result.max_temperature_c},
      };
      samples = {
          {"repetitions", static_cast<double>(hooked.size())},
          {"ticks_per_repetition", static_cast<double>(w.measured_ticks)},
          {"windows", static_cast<double>(best.windows)},
          {"ticks_per_window", static_cast<double>(kWindowTicks)},
          {"tick_p99_ms", static_cast<double>(hooked_ms.size())},
          {"setup_s", static_cast<double>(setup_s.size())},
          {"it_power_w", static_cast<double>(ref.result.ticks)},
          {"migrations_per_tick", static_cast<double>(ref.result.ticks)},
      };
    } else {
      const double coverage = ratio(traced.covered_ms, traced.total_ms);
      checks.add("trace_coverage", coverage >= 0.95,
                 "layer spans cover " + number(100.0 * coverage) +
                     "% of tick time");
      if (!args.trace_out.empty()) write_spans(args.trace_out, last_traced.spans);

      const Counters& c = last_traced.window;
      const double ticks = static_cast<double>(last_traced.result.ticks);
      const auto per_tick = [&](double v) { return ratio(v, ticks); };
      const double skipped = get(c, "control.nodes_skipped");
      const double reaggregated = get(c, "control.nodes_reaggregated");
      const double candidates = get(c, "control.consol_candidates");
      const double pack_calls = get(c, "controller.pack_calls");
      const double reused = get(c, "control.packings_reused");
      const double losses = get(c, "fault.directive_losses");
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        metrics.emplace_back(std::string(kLayerNames[l]) + "_ms",
                             median(traced.layer_ms[l]));
      }
      metrics.insert(metrics.end(), {
          {"core.controller_p99_ms",
           percentile(traced.layer_ms[kController], 0.99)},
          {"sim.unattributed_ms", median(traced.unattributed_ms)},
          {"trace.overhead_pct",
           100.0 * (ratio(median(traced.tick_ms), median(hooked_ms)) - 1.0)},
          {"trace.coverage_pct", 100.0 * coverage},
          {"hier.reaggregated_per_tick", per_tick(reaggregated)},
          {"hier.visited_per_tick", per_tick(skipped + reaggregated)},
          {"hier.skip_ratio", ratio(skipped, skipped + reaggregated)},
          {"hier.reports_per_tick", per_tick(get(c, "control.demand_reports"))},
          {"core.directives_per_tick",
           per_tick(get(c, "control.budget_directives"))},
          {"core.supply_memo_per_tick",
           per_tick(get(c, "control.supply_subtrees_memoized"))},
          {"core.consol_candidates_per_tick", per_tick(candidates)},
          {"core.consol_drain_ratio",
           ratio(get(c, "control.consol_drained"), candidates)},
          {"core.consol_cache_ratio",
           ratio(get(c, "control.consol_cache_served"), candidates)},
          {"binpack.pack_calls_per_tick", per_tick(pack_calls)},
          {"binpack.items_per_pack",
           ratio(get(c, "controller.pack_items.sum"),
                 get(c, "controller.pack_items.count"))},
          {"binpack.pack_attempts_per_tick", per_tick(pack_calls + reused)},
          {"binpack.reuse_ratio", ratio(reused, pack_calls + reused)},
          {"core.wakes_per_tick", per_tick(get(c, "controller.wakes"))},
          {"core.sleeps_per_tick", per_tick(get(c, "controller.sleeps"))},
          {"fault.link_drops_per_tick",
           per_tick(get(c, "fault.link_drops_up") + losses)},
          {"fault.directive_losses_per_tick", per_tick(losses)},
          {"fault.retry_ratio",
           ratio(get(c, "fault.directive_retries"), losses)},
          {"fault.stale_timeouts_per_tick",
           per_tick(get(c, "fault.stale_timeouts"))},
          {"fault.fallbacks_per_tick",
           per_tick(get(c, "fault.fallback_budgets"))},
      });
      samples = {
          {"traced_ticks", static_cast<double>(traced.tick_ms.size())},
          {"untraced_ticks", static_cast<double>(hooked_ms.size())},
          {"counted_ticks", ticks},
      };
    }
  } catch (const std::exception& e) {
    checks.add("no_exception", false, e.what());
    if (attempted == 0) attempted = w.measured_ticks;
  }
  // Any failed check or exception fails every tick of the run.
  const bool correct = checks.all_ok();
  const long failed = correct ? 0 : attempted;
  const double probe_end = host_probe_ms();

  std::cout << "workload " << w.name << " seed " << args.seed << " trace "
            << (args.trace ? 1 : 0) << " repetitions " << reps << '\n';
  for (const auto& [k, v] : metrics) std::cout << "  " << k << " = " << number(v) << '\n';
  for (const auto& [k, v] : samples) {
    std::cout << "  samples " << k << " = " << number(v) << '\n';
  }
  std::cout << "  host_probe_ms start = " << number(probe_start)
            << " end = " << number(probe_end) << '\n';
  std::string checks_json = "[";
  for (const auto& c : checks.items()) {
    std::cout << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED")
              << '\n';
    if (!c.ok) std::cout << c.detail << '\n';
    if (checks_json.size() > 1) checks_json += ",";
    checks_json += "{\"name\":" + quote(c.name) +
                   ",\"ok\":" + (c.ok ? "true" : "false") +
                   ",\"detail\":" + quote(c.detail) + "}";
  }
  checks_json += "]";

  std::cout << "REPORT {\"workload\":" << quote(w.name)
            << ",\"seed\":" << args.seed
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"repetitions\":" << reps
            << ",\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << object(metrics)
            << ",\"samples\":" << object(samples)
            << ",\"host_probe_ms\":"
            << object({{"start", probe_start}, {"end", probe_end}})
            << ",\"checks\":" << checks_json << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace willow::tickbench

int main(int argc, char** argv) {
  using namespace willow::tickbench;
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = find_workload(value);
        if (args.workload == nullptr) return usage("unknown workload " + value);
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload == nullptr || !have_seed) {
    return usage("--workload and --seed are required");
  }
  return run(args);
}
