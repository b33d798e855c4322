// End-to-end fault injection: trace determinism across thread counts with
// every fault source armed, crash/recovery event flow, UPS failure windows,
// and the degraded-mode counters feeding the metrics registry.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

#include "obs/sink.h"
#include "sim/simulation.h"

namespace willow::sim {
namespace {

using namespace willow::util::literals;

SimConfig faulty_config(unsigned long long seed) {
  SimConfig cfg;
  cfg.datacenter.server.thermal.c1 = 0.08;
  cfg.datacenter.server.thermal.c2 = 0.05;
  cfg.datacenter.server.thermal.ambient = 25_degC;
  cfg.datacenter.server.thermal.limit = 70_degC;
  cfg.datacenter.server.thermal.nameplate = 450_W;
  cfg.datacenter.server.power_model =
      power::ServerPowerModel::paper_simulation();
  cfg.target_utilization = 0.6;
  cfg.warmup_ticks = 10;
  cfg.measure_ticks = 40;
  cfg.seed = seed;
  cfg.churn_probability = 0.05;
  cfg.report_loss_probability = 0.05;
  cfg.faults.link.up_loss = 0.05;
  cfg.faults.link.up_delay = 0.05;
  cfg.faults.link.up_duplicate = 0.02;
  cfg.faults.link.down_loss = 0.05;
  cfg.faults.link.down_duplicate = 0.02;
  cfg.faults.power_sensor.stuck_probability = 0.01;
  cfg.faults.power_sensor.bias_probability = 0.01;
  cfg.faults.power_sensor.dropout_probability = 0.01;
  cfg.faults.power_sensor.bias = 4.0;
  cfg.faults.temp_sensor.stuck_probability = 0.01;
  cfg.faults.temp_sensor.bias_probability = 0.01;
  cfg.faults.temp_sensor.dropout_probability = 0.01;
  cfg.faults.temp_sensor.bias = 3.0;
  cfg.faults.crash_probability = 0.005;
  cfg.faults.crash_down_ticks = 6;
  cfg.faults.crash_events.push_back({15, 0, 2, 5});
  cfg.controller.stale_timeout_ticks = 3;
  cfg.controller.stale_decay = 0.9;
  cfg.controller.directive_retry_limit = 3;
  return cfg;
}

struct TracedRun {
  std::string trace;
  SimResult result;
};

TracedRun traced_run(SimConfig cfg, std::size_t threads) {
  std::ostringstream os;
  cfg.threads = threads;
  cfg.sinks.push_back(std::make_shared<obs::JsonlTraceSink>(os));
  auto result = run_simulation(std::move(cfg));
  return {os.str(), std::move(result)};
}

TEST(FaultInjection, TraceBytesIdenticalForAnyThreadCount) {
  const TracedRun serial = traced_run(faulty_config(11), 1);
  ASSERT_FALSE(serial.trace.empty());
  for (const std::size_t threads : {4u, 8u}) {
    const TracedRun mt = traced_run(faulty_config(11), threads);
    EXPECT_EQ(serial.trace, mt.trace) << "threads=" << threads;
    EXPECT_EQ(serial.result.total_power.stats().sum(),
              mt.result.total_power.stats().sum());
    EXPECT_EQ(serial.result.controller_stats.total_migrations(),
              mt.result.controller_stats.total_migrations());
  }
}

TEST(FaultInjection, ScheduledCrashGoesDownAndComesBack) {
  auto cfg = faulty_config(3);
  // Only the scripted outage: servers 0..2 down at tick 15 for 5 ticks.
  cfg.faults.crash_probability = 0.0;
  cfg.faults.power_sensor = {};
  cfg.faults.temp_sensor = {};
  cfg.faults.link = {};
  cfg.report_loss_probability = 0.0;
  cfg.churn_probability = 0.0;
  // No consolidation: a server asleep at tick 15 would (correctly) dodge the
  // scripted outage, and this test wants all three hit.
  cfg.controller.eta2 = 1000;
  auto counting = std::make_shared<obs::CountingSink>();
  cfg.sinks.push_back(counting);
  Simulation simulation(std::move(cfg));
  const auto result = simulation.run();

  EXPECT_EQ(counting->count(obs::EventType::kNodeDown), 3u);
  EXPECT_EQ(counting->count(obs::EventType::kNodeUp), 3u);
  EXPECT_EQ(counting->count(obs::EventType::kResyncComplete), 3u);
  EXPECT_EQ(result.metrics.counter_or_zero("fault.crashes"), 3u);
  EXPECT_EQ(result.metrics.counter_or_zero("fault.restarts"), 3u);
  // Everyone is back up by end of run.
  auto& cluster = simulation.datacenter().cluster;
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    EXPECT_FALSE(cluster.server_at(i).crashed()) << "server " << i;
  }
}

TEST(FaultInjection, FaultCountersAndEventsAccumulate) {
  auto counting = std::make_shared<obs::CountingSink>();
  auto cfg = faulty_config(11);
  cfg.sinks.push_back(counting);
  const auto result = run_simulation(std::move(cfg));
  const auto& m = result.metrics;
  EXPECT_GT(m.counter_or_zero("fault.link_drops_up"), 0u);
  EXPECT_GT(m.counter_or_zero("fault.sensor_faults"), 0u);
  EXPECT_GT(m.counter_or_zero("fault.crashes"), 0u);
  EXPECT_GT(counting->count(obs::EventType::kLinkDrop), 0u);
  EXPECT_GT(counting->count(obs::EventType::kSensorFault), 0u);
  EXPECT_GT(counting->count(obs::EventType::kNodeDown), 0u);
  // Stale timeouts fire somewhere in a run with lost reports and dropouts.
  EXPECT_GT(m.counter_or_zero("fault.stale_timeouts"), 0u);
}

TEST(FaultInjection, UpsFailureWindowEmitsTransitions) {
  auto cfg = faulty_config(5);
  cfg.faults = {};
  cfg.report_loss_probability = 0.0;
  cfg.churn_probability = 0.0;
  std::vector<util::Watts> levels(60, 480_W);
  for (std::size_t i = 25; i < 35; ++i) levels[i] = 150_W;
  cfg.supply = std::make_shared<power::SteppedSupply>(levels, 1_s);
  cfg.ups = power::Ups(util::Joules{90000.0}, 220_W, 160_W, 0.8);
  cfg.faults.ups_failures.push_back({20, 40});
  auto counting = std::make_shared<obs::CountingSink>();
  auto ring = std::make_shared<obs::RingBufferSink>(100000);
  cfg.sinks.push_back(counting);
  cfg.sinks.push_back(ring);
  const auto result = run_simulation(std::move(cfg));
  EXPECT_EQ(counting->count(obs::EventType::kUpsFail), 1u);
  EXPECT_EQ(counting->count(obs::EventType::kUpsRestore), 1u);
  ASSERT_EQ(result.ticks, 40);
  // The window is inclusive: the battery fails at tick 20 and is back at 41.
  ASSERT_LT(ring->total_seen(), 100000u);
  for (const auto& e : ring->events()) {
    if (e.type == obs::EventType::kUpsFail) {
      EXPECT_EQ(e.tick, 20);
    } else if (e.type == obs::EventType::kUpsRestore) {
      EXPECT_EQ(e.tick, 41);
    }
  }
}

TEST(FaultInjection, CrashedServersAreDeniedForQos) {
  auto base = faulty_config(9);
  base.faults = {};
  base.report_loss_probability = 0.0;
  base.churn_probability = 0.0;
  base.sla_inflation = 5.0;

  auto crashed = base;
  // Take a third of the fleet down across the whole measurement window.
  crashed.faults.crash_events.push_back({12, 0, 5, 40});

  const auto healthy_run = run_simulation(std::move(base));
  const auto crashed_run = run_simulation(std::move(crashed));
  ASSERT_FALSE(crashed_run.qos_satisfaction.empty());
  EXPECT_LT(crashed_run.qos_satisfaction.stats().mean(),
            healthy_run.qos_satisfaction.stats().mean());
}

TEST(FaultInjection, DisabledFaultConfigAddsNothing) {
  // A config with the fault struct present but all-zero must produce the
  // same bytes as one that never mentions it (they are the same object; the
  // assertion is that arming logic keys off enabled(), not presence).
  auto cfg = faulty_config(11);
  cfg.faults = {};
  cfg.controller.stale_timeout_ticks = 0;
  EXPECT_FALSE(cfg.faults.enabled());
  const TracedRun a = traced_run(cfg, 1);
  const TracedRun b = traced_run(cfg, 4);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.result.metrics.counter_or_zero("fault.crashes"), 0u);
  // Lazy instruments: no fault counters appear in the snapshot at all.
  for (const auto& c : a.result.metrics.counters) {
    EXPECT_NE(c.name.rfind("fault.", 0), 0u) << c.name;
  }
}

}  // namespace
}  // namespace willow::sim
