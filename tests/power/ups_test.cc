#include "power/ups.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/bus.h"
#include "obs/sink.h"

namespace willow::power {
namespace {

using namespace willow::util::literals;

TEST(Ups, ValidatesArguments) {
  EXPECT_THROW(Ups(Joules{-1.0}, 10_W, 10_W), std::invalid_argument);
  EXPECT_THROW(Ups(100_J, Watts{-1.0}, 10_W), std::invalid_argument);
  EXPECT_THROW(Ups(100_J, 10_W, Watts{-1.0}), std::invalid_argument);
  EXPECT_THROW(Ups(100_J, 10_W, 10_W, 1.5), std::invalid_argument);
}

TEST(Ups, StartsAtConfiguredCharge) {
  Ups full(100_J, 10_W, 10_W, 1.0);
  EXPECT_DOUBLE_EQ(full.state_of_charge(), 1.0);
  Ups half(100_J, 10_W, 10_W, 0.5);
  EXPECT_DOUBLE_EQ(half.stored().value(), 50.0);
}

TEST(Ups, SurplusPassesThroughAndRecharges) {
  Ups ups(100_J, 10_W, 5_W, 0.0);
  const Watts delivered = ups.step(100_W, 60_W, 2_s);
  EXPECT_DOUBLE_EQ(delivered.value(), 60.0);
  // Recharge limited by max_charge (5 W for 2 s = 10 J).
  EXPECT_DOUBLE_EQ(ups.stored().value(), 10.0);
}

TEST(Ups, RechargeEmitsOneChargeEvent) {
  obs::EventBus bus;
  auto ring = std::make_shared<obs::RingBufferSink>(8);
  bus.add_sink(ring);
  Ups ups(100_J, 10_W, 5_W, 0.5);
  ups.set_event_bus(&bus);
  ups.step(100_W, 60_W, 2_s);  // 5 W for 2 s: 50 J -> 60 J
  ASSERT_EQ(ring->events().size(), 1u);
  const obs::Event& e = ring->events()[0];
  EXPECT_EQ(e.type, obs::EventType::kUpsCharge);
  EXPECT_DOUBLE_EQ(e.value, 5.0);
  EXPECT_DOUBLE_EQ(e.aux, 0.6);

  Ups full(100_J, 10_W, 5_W, 1.0);  // nothing to store: no event
  full.set_event_bus(&bus);
  full.step(100_W, 60_W, 2_s);
  EXPECT_EQ(ring->events().size(), 1u);
}

TEST(Ups, RechargeCapsAtCapacity) {
  Ups ups(8_J, 10_W, 100_W, 0.0);
  ups.step(200_W, 0_W, 1_s);
  EXPECT_DOUBLE_EQ(ups.stored().value(), 8.0);
}

TEST(Ups, DeficitBridgedByDischarge) {
  Ups ups(1000_J, 50_W, 50_W, 1.0);
  const Watts delivered = ups.step(100_W, 130_W, 2_s);
  EXPECT_DOUBLE_EQ(delivered.value(), 130.0);
  EXPECT_DOUBLE_EQ(ups.stored().value(), 1000.0 - 30.0 * 2.0);
}

TEST(Ups, DischargeLimitedByRate) {
  Ups ups(1000_J, 20_W, 20_W, 1.0);
  const Watts delivered = ups.step(100_W, 200_W, 1_s);
  EXPECT_DOUBLE_EQ(delivered.value(), 120.0);  // supply + max 20 W discharge
}

TEST(Ups, DischargeLimitedByStoredEnergy) {
  Ups ups(10_J, 100_W, 100_W, 1.0);
  const Watts delivered = ups.step(100_W, 200_W, 1_s);
  EXPECT_DOUBLE_EQ(delivered.value(), 110.0);  // only 10 J available over 1 s
  EXPECT_DOUBLE_EQ(ups.stored().value(), 0.0);
}

TEST(Ups, EmptyBatteryPassesSupplyOnly) {
  Ups ups(100_J, 100_W, 100_W, 0.0);
  EXPECT_DOUBLE_EQ(ups.step(80_W, 200_W, 1_s).value(), 80.0);
}

TEST(Ups, DeliverableIsPureQuery) {
  Ups ups(100_J, 50_W, 50_W, 1.0);
  const double stored_before = ups.stored().value();
  (void)ups.deliverable(10_W, 100_W, 1_s);
  EXPECT_DOUBLE_EQ(ups.stored().value(), stored_before);
}

TEST(Ups, StepRejectsNonPositiveDt) {
  Ups ups(100_J, 10_W, 10_W);
  EXPECT_THROW(ups.step(10_W, 10_W, Seconds{0.0}), std::invalid_argument);
}

TEST(Ups, SmoothsShortDipButNotLongPlunge) {
  // The Sec. IV-C argument: UPS integrates out *temporary* deficits, which
  // is why supply periods can be coarser than demand periods.
  Ups ups(200_J, 150_W, 50_W, 1.0);
  // Short 1-period dip of 150 W below demand: fully bridged.
  EXPECT_DOUBLE_EQ(ups.step(450_W, 600_W, 1_s).value(), 600.0);
  // Long plunge drains the battery; deliverable decays to raw supply.
  Watts last{0.0};
  for (int i = 0; i < 10; ++i) last = ups.step(450_W, 600_W, 1_s);
  EXPECT_DOUBLE_EQ(last.value(), 450.0);
  EXPECT_DOUBLE_EQ(ups.state_of_charge(), 0.0);
}

}  // namespace
}  // namespace willow::power
