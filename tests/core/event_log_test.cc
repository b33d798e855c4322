// The controller's decisions on the event bus: every action appears, in
// order, as a typed event.
#include <gtest/gtest.h>

#include <memory>

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
  NodeId root, rack, s00, s01;
  workload::AppIdAllocator ids;

  Fixture() {
    root = cluster.add_root("dc");
    rack = cluster.add_group(root, "rack");
    s00 = cluster.add_server(rack, "s00", lax_server());
    s01 = cluster.add_server(rack, "s01", lax_server());
  }

  workload::AppId host(NodeId server, double watts) {
    const auto id = ids.next();
    cluster.place(Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }

  ControllerConfig config() {
    ControllerConfig cfg;
    cfg.margin = 5_W;
    cfg.migration_cost = 2_W;
    cfg.allocation = AllocationPolicy::kProportionalToCapacity;
    return cfg;
  }
};

/// A controller wired to a bus whose ring buffer holds one tick's events.
struct Traced {
  obs::EventBus bus;
  std::shared_ptr<obs::RingBufferSink> sink =
      std::make_shared<obs::RingBufferSink>(4096);
  Controller ctl;

  Traced(Cluster& cluster, const ControllerConfig& cfg) : ctl(cluster, cfg) {
    bus.add_sink(sink);
    ctl.set_event_bus(&bus);
  }

  void tick(Watts supply) {
    sink->clear();
    ctl.tick(supply);
  }

  [[nodiscard]] std::size_t count(obs::EventType type) const {
    std::size_t n = 0;
    for (const auto& e : sink->events()) n += e.type == type ? 1 : 0;
    return n;
  }
};

TEST(EventLog, MigrationInitiatedRecorded) {
  Fixture f;
  const auto app = f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  Traced t(f.cluster, f.config());
  t.tick(200_W);
  ASSERT_EQ(t.count(obs::EventType::kMigration), 1u);
  for (const auto& e : t.sink->events()) {
    if (e.type != obs::EventType::kMigration) continue;
    EXPECT_EQ(e.node, f.s00);
    EXPECT_EQ(e.node2, f.s01);
    EXPECT_TRUE(e.app == app || e.app != 0);
    EXPECT_DOUBLE_EQ(e.value, 50.0);
  }
}

TEST(EventLog, DropAndReviveRecorded) {
  Fixture f;
  f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  Traced t(f.cluster, f.config());
  t.tick(100_W);  // starve: drops
  EXPECT_GT(t.count(obs::EventType::kDrop), 0u);
  for (int i = 0; i < 8; ++i) {
    f.cluster.refresh_demands_constant();
    t.tick(400_W);
    if (t.count(obs::EventType::kRevive) > 0) break;
  }
  EXPECT_GT(t.ctl.stats().revivals, 0u);
}

TEST(EventLog, DegradeAndRestoreRecorded) {
  Fixture f;
  f.host(f.s00, 100.0);
  f.host(f.s01, 100.0);
  ControllerConfig cfg = f.config();
  cfg.shedding = SheddingPolicy::kDegradeThenDrop;
  Traced t(f.cluster, cfg);
  t.tick(140_W);
  EXPECT_GT(t.count(obs::EventType::kDegrade), 0u);
  std::size_t restores = 0;
  for (int i = 0; i < 8; ++i) {
    f.cluster.refresh_demands_constant();
    t.tick(400_W);
    restores += t.count(obs::EventType::kRestore);
  }
  EXPECT_GT(restores, 0u);
}

TEST(EventLog, SleepRecordedAtConsolidation) {
  Fixture f;
  f.host(f.s00, 170.0);
  f.host(f.s01, 20.0);
  Traced t(f.cluster, f.config());
  std::size_t sleeps = 0;
  for (int i = 1; i <= 7; ++i) {
    t.tick(880_W);
    sleeps += t.count(obs::EventType::kSleep);
  }
  EXPECT_EQ(sleeps, 1u);
}

TEST(EventLog, CompletedEventInLatencyMode) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s00, 50.0);
  ControllerConfig cfg = f.config();
  cfg.migration_periods_per_gib = 2.0;  // 512 MB image -> 1 period
  Traced t(f.cluster, cfg);
  t.tick(200_W);
  ASSERT_EQ(t.count(obs::EventType::kMigration), 1u);
  std::size_t completed = 0;
  for (int i = 0; i < 3; ++i) {
    f.cluster.refresh_demands_constant();
    t.tick(200_W);
    completed += t.count(obs::EventType::kMigrationLanded);
  }
  EXPECT_EQ(completed, 1u);
}

}  // namespace
}  // namespace willow::core
