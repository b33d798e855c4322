#include "workload/application.h"

#include <gtest/gtest.h>

namespace willow::workload {
namespace {

using namespace willow::util::literals;

TEST(Catalogs, SimulationCatalogMatchesPaper) {
  // Sec. V-B1: relative average power requirements 1, 2, 5, 9.
  const auto& cat = simulation_catalog();
  ASSERT_EQ(cat.size(), 4u);
  EXPECT_DOUBLE_EQ(cat[0].relative_power, 1.0);
  EXPECT_DOUBLE_EQ(cat[1].relative_power, 2.0);
  EXPECT_DOUBLE_EQ(cat[2].relative_power, 5.0);
  EXPECT_DOUBLE_EQ(cat[3].relative_power, 9.0);
}

TEST(Catalogs, TestbedCatalogMatchesTableII) {
  // Table II: A1 = 8 W, A2 = 10 W, A3 = 15 W.
  const auto& cat = testbed_catalog();
  ASSERT_EQ(cat.size(), 3u);
  EXPECT_EQ(cat[0].name, "A1");
  EXPECT_DOUBLE_EQ(cat[0].relative_power, 8.0);
  EXPECT_EQ(cat[1].name, "A2");
  EXPECT_DOUBLE_EQ(cat[1].relative_power, 10.0);
  EXPECT_EQ(cat[2].name, "A3");
  EXPECT_DOUBLE_EQ(cat[2].relative_power, 15.0);
}

TEST(Application, RejectsInvalidConstruction) {
  EXPECT_THROW(Application(kInvalidApp, 0, 10_W, 512_MB),
               std::invalid_argument);
  EXPECT_THROW(Application(1, 0, Watts{-1.0}, 512_MB), std::invalid_argument);
}

TEST(Application, InitialDemandEqualsMean) {
  Application a(1, 2, 50_W, 512_MB);
  EXPECT_DOUBLE_EQ(a.demand().value(), 50.0);
  EXPECT_DOUBLE_EQ(a.mean_power().value(), 50.0);
  EXPECT_EQ(a.class_index(), 2u);
  EXPECT_DOUBLE_EQ(a.image_size().value(), 512.0);
}

TEST(Application, DemandIsMutable) {
  Application a(1, 0, 50_W, 512_MB);
  a.set_demand(62_W);
  EXPECT_DOUBLE_EQ(a.demand().value(), 62.0);
}

TEST(Application, DropFlag) {
  Application a(1, 0, 50_W, 512_MB);
  EXPECT_FALSE(a.dropped());
  a.set_dropped(true);
  EXPECT_TRUE(a.dropped());
}

TEST(AppIdAllocator, MonotonicAndNonZero) {
  AppIdAllocator ids;
  const AppId first = ids.next();
  EXPECT_NE(first, kInvalidApp);
  AppId prev = first;
  for (int i = 0; i < 100; ++i) {
    const AppId next = ids.next();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

}  // namespace
}  // namespace willow::workload
