// Degraded-mode control: stale-report timeouts with decayed synthetic
// demand, fail-safe fallback budgets for dark servers, bounded-backoff
// directive retries under down-link loss, and crash/restore re-integration.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/controller.h"
#include "fault/link_faults.h"
#include "obs/sink.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;
using workload::Application;

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

struct Fixture {
  Cluster cluster{1.0};
  NodeId root, rack0, rack1, s00, s01, s10, s11;
  workload::AppIdAllocator ids;
  obs::EventBus bus;
  std::shared_ptr<obs::CountingSink> sink = std::make_shared<obs::CountingSink>();

  Fixture() {
    root = cluster.add_root("dc");
    rack0 = cluster.add_group(root, "rack0");
    rack1 = cluster.add_group(root, "rack1");
    s00 = cluster.add_server(rack0, "s00", paper_server());
    s01 = cluster.add_server(rack0, "s01", paper_server());
    s10 = cluster.add_server(rack1, "s10", paper_server());
    s11 = cluster.add_server(rack1, "s11", paper_server());
    bus.add_sink(sink);
    cluster.set_event_bus(&bus);
  }

  workload::AppId host(NodeId server, double watts) {
    const auto id = ids.next();
    cluster.place(Application(id, 0, Watts{watts}, 512_MB), server);
    return id;
  }
};

TEST(StaleReports, TimeoutSynthesizesDecayedDemand) {
  Fixture f;
  f.host(f.s00, 20.0);
  ControllerConfig cfg;
  cfg.eta2 = 1000;  // keep consolidation out of the picture
  cfg.stale_timeout_ticks = 2;
  cfg.stale_decay = 0.5;
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);

  ctl.tick(Watts{2000.0});  // fresh observation seeds last-known-good
  auto& srv = f.cluster.server(f.s00);
  ASSERT_TRUE(srv.has_last_good_demand());
  const Watts last_good = srv.last_good_demand();
  const Watts idle = srv.idle_floor();
  ASSERT_GT(last_good.value(), idle.value());

  f.cluster.set_report_fault(f.s00, true);
  const auto& leaf = f.cluster.tree().node(f.s00);

  ctl.tick(Watts{2000.0});  // stale = 1 < timeout: leaf keeps old raw demand
  EXPECT_EQ(srv.stale_ticks(), 1);
  EXPECT_EQ(f.sink->count(obs::EventType::kStaleTimeout), 0u);
  EXPECT_DOUBLE_EQ(leaf.raw_demand().value(), last_good.value());

  ctl.tick(Watts{2000.0});  // stale = 2 == timeout: synthetic at full value
  EXPECT_EQ(f.sink->count(obs::EventType::kStaleTimeout), 1u);
  EXPECT_DOUBLE_EQ(leaf.raw_demand().value(), last_good.value());

  ctl.tick(Watts{2000.0});  // one decay step
  const double dynamic = (last_good - idle).value();
  EXPECT_DOUBLE_EQ(leaf.raw_demand().value(), idle.value() + dynamic * 0.5);

  ctl.tick(Watts{2000.0});  // two decay steps
  EXPECT_DOUBLE_EQ(leaf.raw_demand().value(), idle.value() + dynamic * 0.25);
  // The timeout event fires once per outage, not per tick.
  EXPECT_EQ(f.sink->count(obs::EventType::kStaleTimeout), 1u);

  f.cluster.set_report_fault(f.s00, false);
  ctl.tick(Watts{2000.0});  // recovery: fresh observation resets staleness
  EXPECT_EQ(srv.stale_ticks(), 0);
  EXPECT_DOUBLE_EQ(leaf.raw_demand().value(), srv.power_demand().value());
}

TEST(StaleReports, FallbackBudgetClampsDarkServer) {
  Fixture f;
  f.host(f.s00, 100.0);
  ControllerConfig cfg;
  cfg.eta2 = 1000;
  cfg.stale_timeout_ticks = 1;
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);

  ctl.tick(Watts{2000.0});
  const auto& leaf = f.cluster.tree().node(f.s00);
  const auto& srv = f.cluster.server(f.s00);
  // Safe envelope: holdable at steady state from any starting temperature.
  const Watts steady = srv.thermal().steady_state_power_limit();
  ASSERT_GT(leaf.budget().value(), steady.value());

  f.cluster.set_report_fault(f.s00, true);
  ctl.tick(Watts{2000.0});  // stale hits the timeout: clamp fail-safe
  EXPECT_GE(f.sink->count(obs::EventType::kFallbackBudget), 1u);
  EXPECT_LE(leaf.budget().value(), steady.value() + 1e-9);
  EXPECT_TRUE(ctl.budget_reduced(f.s00));

  // The clamp only ever tightens: the dark server's budget never rises
  // above the safe envelope while it stays silent.
  for (int t = 0; t < 10; ++t) {
    ctl.tick(Watts{2000.0});
    EXPECT_LE(leaf.budget().value(), steady.value() + 1e-9);
  }
}

TEST(DirectiveRetry, AllLossesAbandonAfterBoundedAttempts) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s10, 30.0);
  ControllerConfig cfg;
  // One supply event, then silence: a fresh division would re-queue the
  // pending directive (resetting its attempt count), so the bounded-backoff
  // abandonment path needs the retry chain to play out undisturbed.
  cfg.eta1 = 20;
  cfg.eta2 = 1000;
  cfg.directive_retry_limit = 2;
  fault::LinkFaultConfig link;
  link.down_loss = 1.0;
  fault::LinkFaultModel faults(link, 7);
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);
  ctl.set_link_faults(&faults);

  for (long t = 1; t <= 30; ++t) {
    faults.set_tick(t);
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{300.0 + 10.0 * static_cast<double>(t)});
  }
  const auto m = f.bus.metrics().snapshot();
  EXPECT_GT(m.counter_or_zero("fault.directive_losses"), 0u);
  EXPECT_GT(m.counter_or_zero("fault.directives_abandoned"), 0u);
  EXPECT_EQ(m.counter_or_zero("fault.directive_retries"), 0u);
  EXPECT_GT(f.sink->count(obs::EventType::kLinkDrop), 0u);
}

TEST(DirectiveRetry, LossyLinkEventuallyDelivers) {
  Fixture f;
  f.host(f.s00, 50.0);
  f.host(f.s10, 30.0);
  ControllerConfig cfg;
  cfg.eta2 = 1000;
  cfg.directive_retry_limit = 4;
  fault::LinkFaultConfig link;
  link.down_loss = 0.5;
  fault::LinkFaultModel faults(link, 21);
  Controller ctl(f.cluster, cfg);
  ctl.set_event_bus(&f.bus);
  ctl.set_link_faults(&faults);

  for (long t = 1; t <= 40; ++t) {
    faults.set_tick(t);
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{300.0 + 10.0 * static_cast<double>(t)});
  }
  const auto m = f.bus.metrics().snapshot();
  EXPECT_GT(m.counter_or_zero("fault.directive_losses"), 0u);
  EXPECT_GT(m.counter_or_zero("fault.directive_retries"), 0u);
  // A retried delivery is a real directive: budgets did land eventually.
  EXPECT_GT(f.cluster.tree().node(f.s00).budget().value(), 0.0);
}

TEST(CrashRecovery, ApplicationsSurviveAndBudgetsReturn) {
  Fixture f;
  const auto app = f.host(f.s00, 40.0);
  f.host(f.s01, 40.0);
  ControllerConfig crash_cfg;
  crash_cfg.eta2 = 1000;
  Controller ctl(f.cluster, crash_cfg);
  ctl.set_event_bus(&f.bus);

  ctl.tick(Watts{2000.0});
  ASSERT_GT(f.cluster.tree().node(f.s00).budget().value(), 0.0);

  f.cluster.crash_server(f.s00);
  ctl.note_availability_change(f.s00);
  const auto& srv = f.cluster.server(f.s00);
  EXPECT_TRUE(srv.crashed());
  EXPECT_FALSE(f.cluster.tree().node(f.s00).active());
  // Unlike sleep, the crash keeps hosted applications placed (denied).
  EXPECT_EQ(f.cluster.host_of(app), f.s00);
  EXPECT_DOUBLE_EQ(srv.power_demand().value(), 0.0);

  for (long t = 0; t < 4; ++t) {
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{2000.0});
  }

  f.cluster.restore_server(f.s00);
  ctl.note_availability_change(f.s00);
  EXPECT_FALSE(srv.crashed());
  EXPECT_TRUE(f.cluster.tree().node(f.s00).active());
  EXPECT_EQ(f.cluster.host_of(app), f.s00);
  for (long t = 0; t < 8; ++t) {
    f.cluster.refresh_demands_constant();
    ctl.tick(Watts{2000.0});
  }
  // The restored server reports demand again and regains a budget.
  EXPECT_GT(f.cluster.tree().node(f.s00).raw_demand().value(), 0.0);
  EXPECT_GT(f.cluster.tree().node(f.s00).budget().value(), 0.0);
}

TEST(DegradedMode, DisabledByDefault) {
  ControllerConfig cfg;
  EXPECT_EQ(cfg.stale_timeout_ticks, 0);
  EXPECT_DOUBLE_EQ(cfg.stale_decay, 0.9);
  EXPECT_EQ(cfg.directive_retry_limit, 3);
  EXPECT_NO_THROW(cfg.validate());
  cfg.stale_timeout_ticks = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stale_timeout_ticks = 0;
  cfg.stale_decay = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stale_decay = 1.0;
  cfg.directive_retry_limit = -2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace willow::core
