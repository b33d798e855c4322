// willow_fault unit tests: config validation, per-link verdict determinism,
// and the per-server crash/sensor state machine (FaultPlane).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/link_faults.h"
#include "fault/plane.h"
#include "util/thread_pool.h"

namespace willow::fault {
namespace {

TEST(FaultConfig, DefaultIsDisabledAndValid) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_FALSE(cfg.server_faults_enabled());
  EXPECT_FALSE(cfg.link.any());
  EXPECT_TRUE(cfg.validate("faults.").empty());
}

TEST(FaultConfig, EnabledFlagsTrackSources) {
  FaultConfig cfg;
  cfg.link.up_loss = 0.1;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_FALSE(cfg.server_faults_enabled());

  FaultConfig crash;
  crash.crash_events.push_back({5, 0, 1, 3});
  EXPECT_TRUE(crash.server_faults_enabled());

  FaultConfig ups;
  ups.ups_failures.push_back({2, 4});
  EXPECT_TRUE(ups.enabled());
  EXPECT_FALSE(ups.server_faults_enabled());
}

TEST(FaultConfig, RejectsOutOfRangeKnobs) {
  FaultConfig cfg;
  cfg.link.up_loss = 1.5;
  cfg.power_sensor.dropout_probability = -0.2;
  cfg.crash_probability = 2.0;
  cfg.sensor_fault_mean_ticks = 0.5;
  cfg.crash_down_ticks = 0;
  cfg.crash_events.push_back({-1, 3, 1, 0});  // bad tick, range, down_ticks
  cfg.ups_failures.push_back({10, 5});
  const auto errors = cfg.validate("faults.");
  ASSERT_EQ(errors.size(), 9u);
  for (const auto& e : errors) {
    EXPECT_EQ(e.rfind("faults.", 0), 0u) << e;
  }
}

LinkFaultConfig half_half() {
  LinkFaultConfig link;
  link.up_loss = 0.3;
  link.up_delay = 0.3;
  link.up_duplicate = 0.3;
  link.down_loss = 0.3;
  link.down_duplicate = 0.3;
  return link;
}

TEST(LinkFaults, VerdictsAreAPureFunctionOfSeedTickNode) {
  LinkFaultModel a(half_half(), 77);
  LinkFaultModel b(half_half(), 77);
  LinkFaultModel other_seed(half_half(), 78);
  bool any_fault = false;
  bool seeds_differ = false;
  for (long tick = 0; tick < 200; ++tick) {
    a.set_tick(tick);
    b.set_tick(tick);
    other_seed.set_tick(tick);
    for (std::uint32_t node = 0; node < 8; ++node) {
      const auto ua = a.up(node);
      const auto ub = b.up(node);
      EXPECT_EQ(ua.lose, ub.lose);
      EXPECT_EQ(ua.defer, ub.defer);
      EXPECT_EQ(ua.duplicate, ub.duplicate);
      // One link, one fate per tick: a second ask returns the same verdict.
      const auto again = a.up(node);
      EXPECT_EQ(ua.lose, again.lose);
      EXPECT_EQ(ua.defer, again.defer);
      EXPECT_EQ(ua.duplicate, again.duplicate);
      const auto da = a.down(node);
      const auto db = b.down(node);
      EXPECT_EQ(da.lose, db.lose);
      EXPECT_EQ(da.duplicate, db.duplicate);
      any_fault |= ua.lose || ua.defer || ua.duplicate || da.lose;
      const auto uo = other_seed.up(node);
      seeds_differ |= uo.lose != ua.lose || uo.defer != ua.defer;
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(seeds_differ);
}

TEST(LinkFaults, LossWinsAndDuplicateNeedsDelivery) {
  LinkFaultConfig link;
  link.up_loss = 1.0;
  link.up_delay = 1.0;
  link.up_duplicate = 1.0;
  link.down_loss = 1.0;
  link.down_duplicate = 1.0;
  LinkFaultModel m(link, 1);
  for (long tick = 0; tick < 10; ++tick) {
    m.set_tick(tick);
    const auto u = m.up(3);
    EXPECT_TRUE(u.lose);
    EXPECT_FALSE(u.defer);
    EXPECT_FALSE(u.duplicate);
    const auto d = m.down(3);
    EXPECT_TRUE(d.lose);
    EXPECT_FALSE(d.duplicate);
  }

  link.up_loss = 0.0;
  link.down_loss = 0.0;
  LinkFaultModel delivered(link, 1);
  delivered.set_tick(4);
  EXPECT_TRUE(delivered.up(3).defer);  // delay now wins over duplicate
  EXPECT_TRUE(delivered.down(3).duplicate);
}

TEST(LinkFaults, ZeroConfigNeverFaults) {
  LinkFaultModel m(LinkFaultConfig{}, 99);
  for (long tick = 0; tick < 50; ++tick) {
    m.set_tick(tick);
    const auto u = m.up(0);
    const auto d = m.down(0);
    EXPECT_FALSE(u.lose || u.defer || u.duplicate || d.lose || d.duplicate);
  }
}

/// Records the serial-phase callback sequence for comparison runs.
struct Recorder {
  std::vector<std::string> log;

  FaultPlane::Callbacks callbacks() {
    FaultPlane::Callbacks cb;
    cb.crash = [this](std::size_t i, long down) {
      log.push_back("crash " + std::to_string(i) + " for " +
                    std::to_string(down));
    };
    cb.restart = [this](std::size_t i) {
      log.push_back("restart " + std::to_string(i));
    };
    cb.sensor = [this](std::size_t i, const SensorOverride& o, bool temp) {
      log.push_back(std::string(temp ? "temp " : "power ") +
                    std::to_string(i) + " mode " +
                    std::to_string(static_cast<int>(o.mode)) + " param " +
                    std::to_string(o.param));
    };
    return cb;
  }
};

TEST(FaultPlane, ScheduledCrashAndRestart) {
  // Scheduled crashes and nothing else: the plane samples nothing, so no
  // sensor episode can start or end, and each restart lands exactly
  // down_ticks after its crash.
  FaultConfig cfg;
  cfg.crash_events.push_back({3, 1, 2, 2});
  FaultPlane plane(cfg, 42, 4);
  EXPECT_FALSE(plane.needs_sampling());
  Recorder rec;
  auto cb = rec.callbacks();
  long now = 0;
  std::vector<long> restart_ticks;
  const auto log_restart = cb.restart;
  cb.restart = [&](std::size_t i) {
    restart_ticks.push_back(now);
    log_restart(i);
  };
  int sensor_calls = 0;
  cb.sensor = [&](std::size_t, const SensorOverride&, bool) {
    ++sensor_calls;
  };
  for (now = 0; now <= 6; ++now) plane.step(now, nullptr, cb);
  EXPECT_EQ(rec.log, (std::vector<std::string>{
                         "crash 1 for 2",
                         "crash 2 for 2",
                         "restart 1",
                         "restart 2",
                     }));
  EXPECT_EQ(restart_ticks, (std::vector<long>{3 + 2, 3 + 2}));
  EXPECT_EQ(sensor_calls, 0);
  EXPECT_FALSE(plane.down(1));
  EXPECT_FALSE(plane.down(2));
}

TEST(FaultPlane, SkipCrashShieldsServer) {
  FaultConfig cfg;
  cfg.crash_probability = 1.0;
  cfg.crash_down_ticks = 2;
  FaultPlane plane(cfg, 42, 2);
  Recorder rec;
  auto cb = rec.callbacks();
  cb.skip_crash = [](std::size_t i) { return i == 0; };
  plane.step(0, nullptr, cb);
  EXPECT_FALSE(plane.down(0));
  EXPECT_TRUE(plane.down(1));
  EXPECT_EQ(rec.log, (std::vector<std::string>{"crash 1 for 2"}));
}

TEST(FaultPlane, SensorEpisodesOnsetAndExpire) {
  FaultConfig cfg;
  cfg.power_sensor.dropout_probability = 1.0;
  cfg.temp_sensor.bias_probability = 1.0;
  cfg.temp_sensor.bias = 3.5;
  cfg.sensor_fault_mean_ticks = 1.0;  // every episode lasts exactly one tick
  FaultPlane plane(cfg, 42, 1);
  Recorder rec;
  const auto cb = rec.callbacks();
  plane.step(0, nullptr, cb);
  EXPECT_EQ(plane.power_episode(0).mode, SensorMode::kDropout);
  EXPECT_EQ(plane.temp_episode(0).mode, SensorMode::kBias);
  EXPECT_DOUBLE_EQ(plane.temp_episode(0).param, 3.5);
  // Tick 1: both expire (recovery callbacks), then re-onset immediately.
  rec.log.clear();
  plane.step(1, nullptr, cb);
  EXPECT_EQ(rec.log, (std::vector<std::string>{
                         "power 0 mode 0 param 0.000000",
                         "power 0 mode 3 param 0.000000",
                         "temp 0 mode 0 param 0.000000",
                         "temp 0 mode 2 param 3.500000",
                     }));
}

TEST(FaultPlane, StuckOnsetLeavesParamForCaller) {
  FaultConfig cfg;
  cfg.power_sensor.stuck_probability = 1.0;
  FaultPlane plane(cfg, 42, 1);
  Recorder rec;
  const auto cb = rec.callbacks();
  plane.step(0, nullptr, cb);
  ASSERT_EQ(rec.log.size(), 1u);
  // kStuck == 1; param 0 means "capture the live plant reading".
  EXPECT_EQ(rec.log[0], "power 0 mode 1 param 0.000000");
}

TEST(FaultPlane, CallbackSequenceIndependentOfThreadCount) {
  FaultConfig cfg;
  cfg.crash_probability = 0.05;
  cfg.crash_down_ticks = 3;
  cfg.power_sensor.stuck_probability = 0.05;
  cfg.power_sensor.dropout_probability = 0.05;
  cfg.temp_sensor.bias_probability = 0.05;
  cfg.temp_sensor.bias = 2.0;
  cfg.crash_events.push_back({7, 0, 5, 2});

  Recorder serial;
  {
    FaultPlane plane(cfg, 1234, 24);
    const auto cb = serial.callbacks();
    for (long tick = 0; tick < 40; ++tick) plane.step(tick, nullptr, cb);
  }
  Recorder pooled;
  {
    util::ThreadPool pool(4);
    FaultPlane plane(cfg, 1234, 24);
    const auto cb = pooled.callbacks();
    for (long tick = 0; tick < 40; ++tick) plane.step(tick, &pool, cb);
  }
  EXPECT_FALSE(serial.log.empty());
  EXPECT_EQ(serial.log, pooled.log);
}

}  // namespace
}  // namespace willow::fault
