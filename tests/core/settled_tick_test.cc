// The settled tick (DESIGN.md §10): observation, the thermal clamp, the
// leaf-limit sweep, demand planning and aging visit only the servers whose
// inputs moved.  Each test settles a small fleet at constant demand until
// the thermal plant sits at its bitwise fixed point, moves one input behind
// the controller by one route, and requires the change-driven walk to write
// the same JSONL trace as the full walk.  The change-driven run also runs
// under shadow_diff, which re-derives every pass it skipped and throws on a
// mismatch, so a route that forgets to record its server fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/link_faults.h"
#include "obs/sink.h"
#include "sim/simulation.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

constexpr long kSettle = 800;  // past the thermal plant's bitwise fixed point
constexpr long kAfter = 40;

ServerConfig paper_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 0.08;
  cfg.thermal.c2 = 0.05;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel::paper_simulation();
  return cfg;
}

/// Two racks of four servers.  Every server but the last hosts three 4 W
/// apps (two thirds of the sustainable dynamic power, with room for one
/// more app beside the margin); the last is empty, so consolidation puts it
/// to sleep while the fleet settles.
struct Plant {
  Cluster cluster{0.7};
  std::vector<NodeId> servers;
  std::vector<workload::AppId> apps;
  obs::EventBus bus;
  std::ostringstream trace;
  std::unique_ptr<Controller> ctl;
  std::unique_ptr<fault::LinkFaultModel> link_faults;
  bool refresh = true;
  long tick = 0;

  Plant(ControllerConfig cfg, bool incremental, bool refresh_demand)
      : refresh(refresh_demand) {
    const NodeId root = cluster.add_root("dc");
    workload::AppIdAllocator ids;
    for (int r = 0; r < 2; ++r) {
      const NodeId rack = cluster.add_group(root, "rack" + std::to_string(r));
      for (int s = 0; s < 4; ++s) {
        servers.push_back(cluster.add_server(
            rack, "s" + std::to_string(r) + std::to_string(s),
            paper_server()));
      }
    }
    for (std::size_t i = 0; i + 1 < servers.size(); ++i) {
      for (int a = 0; a < 3; ++a) {
        apps.push_back(ids.next());
        cluster.place(Application(apps.back(), 0, 4_W, 2048_MB), servers[i]);
      }
    }
    bus.add_sink(std::make_shared<obs::JsonlTraceSink>(trace));
    cluster.set_event_bus(&bus);
    cfg.incremental = incremental;
    cfg.shadow_diff = incremental;
    ctl = std::make_unique<Controller>(cluster, cfg);
    ctl->set_event_bus(&bus);
  }

  /// One demand period, in the simulator's order.
  void step() {
    bus.set_tick(tick++);
    if (refresh) cluster.refresh_demands_deterministic(1.0, nullptr);
    ctl->tick(Watts{450.0 * static_cast<double>(servers.size())});
    cluster.step_thermal(1_s);
  }
};

/// The simulator's controller constants (margins sized to the ~28 W
/// thermal envelope, thermal utilization reference).
ControllerConfig sim_controller() { return sim::SimConfig{}.controller; }

using Poke = std::function<void(Plant&, long after)>;

struct RouteRun {
  std::string trace;
  std::size_t poked_at = 0;  ///< trace length when the first poke landed
  std::uint64_t shadow_checks = 0;
  std::uint64_t shadow_mismatches = 0;
};

RouteRun run_route(const Poke& poke, const ControllerConfig& cfg,
                   bool incremental, bool refresh) {
  Plant p(cfg, incremental, refresh);
  RouteRun out;
  for (long t = 0; t < kSettle + kAfter; ++t) {
    if (t == kSettle) {
      p.bus.flush();
      out.poked_at = p.trace.str().size();
    }
    if (t >= kSettle) poke(p, t - kSettle);
    p.step();
  }
  p.bus.flush();
  out.trace = p.trace.str();
  auto& m = p.bus.metrics();
  out.shadow_checks = m.counter("control.shadow_checks").value();
  out.shadow_mismatches = m.counter("control.shadow_mismatches").value();
  return out;
}

/// Full walk and change-driven walk (under shadow_diff) write the same
/// trace, and after the poke it carries `effect`: the route moved something
/// the controller acted on.
void expect_route_equivalent(const Poke& poke, const std::string& effect,
                             const ControllerConfig& cfg = sim_controller(),
                             bool refresh = true) {
  const RouteRun full = run_route(poke, cfg, /*incremental=*/false, refresh);
  const RouteRun inc = run_route(poke, cfg, /*incremental=*/true, refresh);
  ASSERT_FALSE(full.trace.empty());
  EXPECT_EQ(full.trace, inc.trace)
      << "change-driven trace diverges from the full walk at byte "
      << std::mismatch(full.trace.begin(), full.trace.end(),
                       inc.trace.begin(), inc.trace.end())
                 .first -
             full.trace.begin();
  EXPECT_GT(inc.shadow_checks, 0u);
  EXPECT_EQ(inc.shadow_mismatches, 0u);
  EXPECT_NE(inc.trace.find(effect, inc.poked_at), std::string::npos)
      << "nothing after the poke carries " << effect;
}

TEST(SettledTick, TemperatureSetDirectly) {
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after == 0) p.cluster.set_temperature(p.servers[0], 69_degC);
      },
      "\"type\":\"thermal_throttle\"");
}

TEST(SettledTick, AmbientChange) {
  // The plant-side setter alone, as examples/thermal_emergency.cc uses it.
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after != 0) return;
        for (int i = 0; i < 4; ++i) {
          p.cluster.set_ambient(p.servers[i], 45_degC);
        }
      },
      "\"type\":\"thermal_throttle\"");
}

TEST(SettledTick, SensorEpisodesStartAndEnd) {
  // Overrides go through ManagedServer and are announced the way the
  // simulator's fault plane announces them.
  expect_route_equivalent(
      [](Plant& p, long after) {
        const NodeId s = p.servers[1];
        auto& srv = p.cluster.server(s);
        if (after == 0) srv.set_temp_sensor({fault::SensorMode::kDropout, 0});
        if (after == 5) srv.set_power_sensor({fault::SensorMode::kBias, 4.0});
        if (after == 10) srv.set_temp_sensor({});
        if (after == 15) srv.set_power_sensor({});
        if (after == 0 || after == 5 || after == 10 || after == 15) {
          p.ctl->note_external_change(s);
        }
      },
      "\"type\":\"thermal_throttle\"");
}

TEST(SettledTick, ReportLossOnAndOff) {
  auto cfg = sim_controller();
  cfg.stale_timeout_ticks = 2;
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after == 0) p.cluster.set_report_fault(p.servers[2], true);
        if (after == 8) p.cluster.set_report_fault(p.servers[2], false);
      },
      "\"type\":\"stale_timeout\"", cfg);
}

TEST(SettledTick, RetriedDirectiveRaisesABudgetAboveTheLimit) {
  // A directive raising a budget is lost; before its retry lands, a stuck
  // sensor lowers the server's limit, and the clamp takes the budget under
  // it.  The retry then delivers the stale, higher budget while the server
  // sits at its thermal fixed point: only the raise itself marks it for the
  // clamp.  Shares follow capacity, so a raised limit raises the budget.
  auto cfg = sim_controller();
  cfg.allocation = AllocationPolicy::kProportionalToCapacity;
  expect_route_equivalent(
      [](Plant& p, long after) {
        const NodeId s = p.servers[1];
        auto& srv = p.cluster.server(s);
        if (after == 0) {
          fault::LinkFaultConfig lossy;
          lossy.down_loss = 1.0;
          p.link_faults = std::make_unique<fault::LinkFaultModel>(lossy, 1);
          p.ctl->set_link_faults(p.link_faults.get());
          srv.set_temp_sensor({fault::SensorMode::kStuck, 30.0});
          p.ctl->note_external_change(s);
        }
        if (after == 4) {
          p.ctl->set_link_faults(nullptr);
          srv.set_temp_sensor({fault::SensorMode::kStuck, 69.0});
          p.ctl->note_external_change(s);
        }
      },
      "\"type\":\"thermal_throttle\"", cfg);
}

TEST(SettledTick, CrashAndRestore) {
  expect_route_equivalent(
      [](Plant& p, long after) {
        const NodeId s = p.servers[3];
        if (after == 0) p.cluster.crash_server(s);
        if (after == 9) p.cluster.restore_server(s);
        if (after == 0 || after == 9) p.ctl->note_availability_change(s);
      },
      "\"type\":\"budget_directive\"");
}

TEST(SettledTick, WakeAndSleepAgain) {
  // The empty server slept while the fleet settled; woken behind the
  // controller, it is put back to sleep by the next consolidation pass.
  expect_route_equivalent(
      [](Plant& p, long after) {
        const NodeId s = p.servers.back();
        if (after != 0) return;
        ASSERT_TRUE(p.cluster.server(s).asleep());
        p.cluster.wake_server(s);
        p.ctl->note_availability_change(s);
      },
      "\"type\":\"sleep\"");
}

TEST(SettledTick, AppDemandSetInPlace) {
  // No refresh deposits the app-demand cache, so power_demand() reads the
  // apps themselves, as in stability_test's jitter fixtures.  The jump puts
  // the server over its budget, so only its report marks its group for
  // demand planning.
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after == 0) p.cluster.find_app(p.apps[0])->set_demand(200_W);
        if (after == 20) p.cluster.find_app(p.apps[0])->set_demand(4_W);
      },
      "\"reason\":\"supply_deficit\"", sim_controller(),
      /*refresh=*/false);
}

TEST(SettledTick, TemporaryDemandAddedAndExpiring) {
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after == 0) p.cluster.add_temporary_demand(p.servers[4], 3_W, 4);
      },
      "\"dir\":\"up\"");
}

TEST(SettledTick, LatencyModeMigrationLands) {
  // A server past its limit sheds apps over two-period transfers; each
  // landing moves both endpoints behind the observation pass.
  auto cfg = sim_controller();
  cfg.migration_periods_per_gib = 1.0;
  expect_route_equivalent(
      [](Plant& p, long after) {
        if (after == 0) p.cluster.set_temperature(p.servers[0], 75_degC);
      },
      "\"type\":\"migration_landed\"", cfg);
}

}  // namespace
}  // namespace willow::core
