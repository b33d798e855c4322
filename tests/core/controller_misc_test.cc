// Remaining controller branches: supply cadence with non-default eta,
// consolidation without locality preference, revival blocked under reduced
// ancestors, capacity-policy interplay with circuit limits, and the guard
// against a tree that grew after the controller was built.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "obs/sink.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

ServerConfig lax_server() {
  ServerConfig cfg;
  cfg.thermal.c1 = 1e-4;
  cfg.thermal.c2 = 1.0;
  cfg.thermal.ambient = 25_degC;
  cfg.thermal.limit = 70_degC;
  cfg.thermal.nameplate = 450_W;
  cfg.power_model = power::ServerPowerModel(10_W, 450_W);
  return cfg;
}

struct Fixture {
  Cluster cluster{1.0};
  NodeId root, rack0, rack1, s00, s01, s10, s11;
  workload::AppIdAllocator ids;

  Fixture() {
    root = cluster.add_root("dc");
    rack0 = cluster.add_group(root, "rack0");
    rack1 = cluster.add_group(root, "rack1");
    s00 = cluster.add_server(rack0, "s00", lax_server());
    s01 = cluster.add_server(rack0, "s01", lax_server());
    s10 = cluster.add_server(rack1, "s10", lax_server());
    s11 = cluster.add_server(rack1, "s11", lax_server());
  }

  workload::AppId host(NodeId server, double watts) {
    const auto id = ids.next();
    cluster.place(Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }
};

TEST(SupplyCadence, CustomEtaOneControlsDownMessages) {
  // Directives are event-driven, so a *changing* supply is what exposes the
  // ΔS cadence: each supply event re-divides the budget and only then can a
  // new directive cross a link.  eta1 = 2 divides at ticks 1, 2, 4, 6, 8 —
  // five chances; eta1 = 4 divides at ticks 1, 4, 8 — three chances.
  std::map<int, std::uint64_t> busiest;
  for (const int eta1 : {2, 4}) {
    Fixture f;
    f.host(f.s00, 50.0);
    ControllerConfig cfg;
    cfg.eta1 = eta1;
    cfg.eta2 = 5;
    Controller ctl(f.cluster, cfg);
    for (int t = 0; t < 9; ++t) ctl.tick(Watts{400.0 + 25.0 * t});
    const std::uint64_t supply_events = eta1 == 2 ? 5u : 3u;
    for (NodeId id : f.cluster.tree().all_nodes()) {
      if (f.cluster.tree().node(id).is_root()) continue;
      const auto down = f.cluster.tree().node(id).link().down;
      EXPECT_LE(down, supply_events) << "eta1=" << eta1 << " node " << id;
      busiest[eta1] = std::max(busiest[eta1], down);
    }
    EXPECT_GE(busiest[eta1], 1u) << "eta1=" << eta1;
  }
  // Twice as many divisions of the moving supply -> strictly more directives
  // on the loaded path (exact counts depend on which divisions happen to
  // repeat a budget bitwise, which is not this test's concern).
  EXPECT_GT(busiest[2], busiest[4]);
}

TEST(Consolidation, GlobalScopeWhenLocalityDisabled) {
  Fixture f;
  f.host(f.s00, 170.0);
  f.host(f.s10, 20.0);  // candidate in the *other* rack
  ControllerConfig cfg;
  cfg.margin = 5_W;
  cfg.migration_cost = 2_W;
  cfg.prefer_local = false;
  Controller ctl(f.cluster, cfg);
  for (int t = 1; t <= 7; ++t) ctl.tick(Watts{1760.0});
  EXPECT_TRUE(f.cluster.server(f.s10).asleep());
  // With no locality preference the drained app may land anywhere; it must
  // land exactly once.
  std::size_t hosted = 0;
  for (NodeId s : f.cluster.server_ids()) {
    hosted += f.cluster.server(s).apps().size();
  }
  EXPECT_EQ(hosted, 2u);
}

TEST(TopologyGuard, TickRejectsAServerAddedAfterConstruction) {
  // The controller sizes its per-node state once; a later server would be
  // addressed past the end of it.
  Fixture f;
  f.host(f.s00, 50.0);
  Controller ctl(f.cluster, ControllerConfig{});
  ctl.tick(Watts{1000.0});
  f.cluster.add_server(f.rack0, "late", lax_server());
  EXPECT_THROW(ctl.tick(Watts{1000.0}), std::logic_error);
}

/// One consolidation pass over two racks whose servers were created
/// alternately (rack0, rack1, rack0, ...), so each rack's servers are not
/// adjacent in creation order.  The middle rack0 server is light; its rack
/// mates have surplus, and the rack1 servers between them have less (the
/// packer's preferred fit, were they wrongly in rack0's scope).
struct InterleavedRun {
  std::vector<NodeId> rack0_servers;
  std::vector<MigrationRecord> moves;
  bool light_asleep = false;
  std::string trace;
};

InterleavedRun run_interleaved(bool incremental) {
  Cluster cluster{1.0};
  const NodeId root = cluster.add_root("dc");
  const NodeId rack0 = cluster.add_group(root, "rack0");
  const NodeId rack1 = cluster.add_group(root, "rack1");
  InterleavedRun run;
  std::vector<NodeId> rack1_servers;
  for (int i = 0; i < 5; ++i) {
    auto& servers = i % 2 == 0 ? run.rack0_servers : rack1_servers;
    servers.push_back(cluster.add_server(i % 2 == 0 ? rack0 : rack1,
                                         "s" + std::to_string(i),
                                         lax_server()));
  }
  workload::AppIdAllocator ids;
  const auto host = [&](NodeId server, Watts w) {
    cluster.place(Application(ids.next(), 0, w, 512_MB), server);
  };
  host(run.rack0_servers[0], 170_W);
  host(run.rack0_servers[1], 20_W);  // ~4.5% utilization: the candidate
  host(run.rack0_servers[2], 170_W);
  for (const NodeId s : rack1_servers) host(s, 250_W);

  obs::EventBus bus;
  std::ostringstream trace;
  bus.add_sink(std::make_shared<obs::JsonlTraceSink>(trace));
  ControllerConfig cfg;
  cfg.margin = 5_W;
  cfg.migration_cost = 2_W;
  cfg.incremental = incremental;
  cfg.shadow_diff = incremental;
  Controller ctl(cluster, cfg);
  ctl.set_event_bus(&bus);
  ctl.set_migration_sink(
      [&](const MigrationRecord& r) { run.moves.push_back(r); });
  for (long t = 1; t <= 7; ++t) {  // ΔA fires at tick 7
    bus.set_tick(t);
    ctl.tick(Watts{2250.0});
  }
  bus.flush();
  run.light_asleep = cluster.server(run.rack0_servers[1]).asleep();
  run.trace = trace.str();
  return run;
}

TEST(Consolidation, InterleavedRacksDrainWithinTheirOwnRack) {
  const InterleavedRun inc = run_interleaved(true);
  EXPECT_TRUE(inc.light_asleep);
  ASSERT_FALSE(inc.moves.empty());
  for (const auto& m : inc.moves) {
    EXPECT_EQ(m.cause, MigrationCause::kConsolidation);
    EXPECT_EQ(m.from, inc.rack0_servers[1]);
    EXPECT_TRUE(m.local) << "app " << m.app << " left rack0 for " << m.to;
    EXPECT_TRUE(m.to == inc.rack0_servers[0] || m.to == inc.rack0_servers[2]);
  }
  EXPECT_EQ(inc.trace, run_interleaved(false).trace)
      << "incremental and full walks diverged";
}

TEST(Revival, BlockedWhileAncestorReduced) {
  Fixture f;
  const auto victim = f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  f.host(f.s10, 100.0);
  f.host(f.s11, 100.0);
  ControllerConfig cfg;
  cfg.margin = 5_W;
  cfg.allocation = AllocationPolicy::kProportionalToCapacity;
  Controller ctl(f.cluster, cfg);
  ctl.tick(Watts{200.0});  // starve: drops everywhere
  ASSERT_TRUE(f.cluster.find_app(victim)->dropped());
  // Tick 2-3: budgets unchanged (not a supply period), but the reduced
  // flags from tick 1... tick 1 set budgets from 0 -> not reduced.  Force a
  // reducing event and verify revival stays blocked while flags stand even
  // though headroom exists.
  f.cluster.refresh_demands_constant();
  ctl.tick(Watts{195.0});  // tick 2: no ΔS; flags as before
  ctl.force_supply_adaptation(Watts{190.0});  // everything reduced
  ASSERT_TRUE(ctl.budget_reduced(f.root));
  const auto revivals_before = ctl.stats().revivals;
  f.cluster.refresh_demands_constant();
  ctl.tick(Watts{190.0});  // tick 3: no ΔS; reduced flags persist
  EXPECT_EQ(ctl.stats().revivals, revivals_before);
}

TEST(Revival, ProceedsOnceFlagsClear) {
  Fixture f;
  const auto victim = f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  ControllerConfig cfg;
  cfg.margin = 5_W;
  cfg.allocation = AllocationPolicy::kProportionalToCapacity;
  Controller ctl(f.cluster, cfg);
  ctl.tick(Watts{100.0});
  ASSERT_TRUE(f.cluster.find_app(victim)->dropped());
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{500.0});
  }
  EXPECT_FALSE(f.cluster.find_app(victim)->dropped());
}

TEST(CapacityPolicy, CircuitCapsShiftEqualShares) {
  // Capacity-proportional shares follow hard limits: a server with a small
  // circuit rating gets proportionally less even with identical demand.
  ServerConfig small = lax_server();
  small.circuit_limit = 100_W;
  Fixture f;
  const NodeId capped = f.cluster.add_server(f.rack0, "capped", small);
  f.host(capped, 50.0);
  f.host(f.s00, 50.0);
  ControllerConfig cfg;
  cfg.allocation = AllocationPolicy::kProportionalToCapacity;
  Controller ctl(f.cluster, cfg);
  ctl.tick(Watts{5000.0});
  const auto& tree = f.cluster.tree();
  EXPECT_LE(tree.node(capped).budget().value(), 100.0 + 1e-6);
  EXPECT_GT(tree.node(f.s00).budget().value(),
            tree.node(capped).budget().value());
}

TEST(Wake, SkippedWhenNoHeadroom) {
  // A sleeping server exists but the supply is fully consumed by the awake
  // ones: waking would help nobody, so the controller must not thrash.
  Fixture f;
  f.host(f.s00, 170.0);
  f.host(f.s01, 20.0);
  ControllerConfig cfg;
  cfg.margin = 5_W;
  Controller ctl(f.cluster, cfg);
  for (int t = 1; t <= 7; ++t) ctl.tick(Watts{1760.0});
  // Consolidation put some servers to sleep under plenty.
  ASSERT_GT(ctl.stats().sleeps, 0u);
  // Now cut the supply to exactly what the two loaded apps need: deficits
  // appear but waking adds no supply.
  const auto wakes_before = ctl.stats().wakes;
  for (int t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{120.0});
  }
  EXPECT_EQ(ctl.stats().wakes, wakes_before);
}

TEST(Wake, OrderIsDescendingHardLimitThenIdAcrossBatches) {
  // One overloaded awake server and a sleep pool whose circuit ratings (the
  // binding hard limit on these thermally lax servers) tie in groups, with
  // ids interleaved so that neither creation order nor rating alone gives
  // the wake order.  The leftover demand needs three geometric batches
  // (1, 2, then 4 servers); every wake must come off the pool in
  // (hard limit descending, NodeId ascending) order.
  Cluster cluster{1.0};
  workload::AppIdAllocator ids;
  const NodeId root = cluster.add_root("dc");
  const NodeId hot_rack = cluster.add_group(root, "hot");
  const NodeId pool_rack = cluster.add_group(root, "pool");
  const NodeId busy = cluster.add_server(hot_rack, "busy", lax_server());
  const double ratings[] = {250, 300, 400, 300, 250, 300, 200, 250, 300};
  std::vector<std::pair<double, NodeId>> pool;
  for (double rating : ratings) {
    ServerConfig cfg = lax_server();
    cfg.circuit_limit = Watts{rating};
    const NodeId s =
        cluster.add_server(pool_rack, std::to_string(pool.size()), cfg);
    cluster.sleep_server(s);
    pool.emplace_back(rating, s);
  }
  for (int i = 0; i < 12; ++i) {
    cluster.place(Application(ids.next(), 0, 100_W, 512_MB), busy);
  }
  Controller ctl(cluster, ControllerConfig{});
  obs::EventBus bus;
  const auto sink = std::make_shared<obs::RingBufferSink>(4096);
  bus.add_sink(sink);
  ctl.set_event_bus(&bus);
  ctl.tick(Watts{10000.0});

  std::vector<NodeId> woken;
  for (const auto& e : sink->events()) {
    if (e.type == obs::EventType::kWake) woken.push_back(e.node);
  }
  ASSERT_EQ(woken.size(), 7u) << "expected batches of 1, 2 and 4 servers";
  std::sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t i = 0; i < woken.size(); ++i) {
    EXPECT_EQ(woken[i], pool[i].second) << "wake #" << i;
    EXPECT_EQ(cluster.tree().node(woken[i]).hard_limit().value(),
              pool[i].first)
        << "wake #" << i;
  }
}

const obs::MetricsSnapshot::HistogramValue* find_histogram(
    const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& h : m.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

bool has_counter(const obs::MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) return true;
  }
  return false;
}

TEST(PackInstruments, RegisteredOnFirstPackOfEachAttachedBus) {
  Fixture f;
  f.host(f.s00, 170.0);
  f.host(f.s01, 20.0);
  f.host(f.s10, 100.0);
  ControllerConfig cfg;
  cfg.allow_drop = false;  // keep the deficits standing from tick to tick
  Controller ctl(f.cluster, cfg);
  obs::EventBus first;
  ctl.set_event_bus(&first);
  ctl.tick(Watts{1760.0});  // plenty: nobody is short, nothing is packed
  EXPECT_FALSE(has_counter(first.metrics().snapshot(), "controller.pack_calls"));
  EXPECT_EQ(find_histogram(first.metrics().snapshot(), "controller.pack_items"),
            nullptr);

  // Starved from the next supply pass (tick 4) on: deficits are planned
  // through packing.
  for (int t = 2; t <= 4; ++t) {
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{120.0});
  }
  const auto m1 = first.metrics().snapshot();
  const std::uint64_t calls = m1.counter_or_zero("controller.pack_calls");
  ASSERT_GT(calls, 0u);
  const auto* items = find_histogram(m1, "controller.pack_items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->count, calls);

  // A newly attached bus gets its own instruments; the old one stops moving.
  obs::EventBus second;
  ctl.set_event_bus(&second);
  f.cluster.refresh_demands_constant();
  ctl.tick(Watts{120.0});
  EXPECT_GT(second.metrics().snapshot().counter_or_zero("controller.pack_calls"),
            0u);
  EXPECT_EQ(first.metrics().snapshot().counter_or_zero("controller.pack_calls"),
            calls);
}

}  // namespace
}  // namespace willow::core
