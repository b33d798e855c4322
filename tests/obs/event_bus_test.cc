// EventBus semantics: tick stamping, sink fan-out, the stock sinks (ring
// buffer, counting, JSONL), and the event vocabulary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/bus.h"
#include "obs/event.h"
#include "obs/sink.h"

namespace willow::obs {
namespace {

// Events are copied into ring buffers by value.
static_assert(std::is_trivially_copyable_v<Event>);

Event make(EventType type, std::uint32_t node, double value = 0.0) {
  Event e;
  e.type = type;
  e.node = node;
  e.value = value;
  return e;
}

TEST(EventBus, DisabledWithoutSinksEnabledWithOne) {
  EventBus bus;
  EXPECT_FALSE(bus.enabled());
  bus.add_sink(std::make_shared<CountingSink>());
  EXPECT_TRUE(bus.enabled());
}

TEST(EventBus, StampsCurrentTickOnEmit) {
  EventBus bus;
  auto ring = std::make_shared<RingBufferSink>(8);
  bus.add_sink(ring);
  bus.set_tick(17);
  bus.emit(make(EventType::kMigration, 3));
  bus.set_tick(18);
  bus.emit(make(EventType::kDrop, 4));
  ASSERT_EQ(ring->events().size(), 2u);
  EXPECT_EQ(ring->events()[0].tick, 17);
  EXPECT_EQ(ring->events()[1].tick, 18);
}

TEST(EventBus, FansOutToEverySink) {
  EventBus bus;
  auto a = std::make_shared<CountingSink>();
  auto b = std::make_shared<CountingSink>();
  bus.add_sink(a);
  bus.add_sink(b);
  bus.emit(make(EventType::kSleep, 1));
  bus.emit(make(EventType::kWake, 1));
  EXPECT_EQ(a->total(), 2u);
  EXPECT_EQ(b->total(), 2u);
  EXPECT_EQ(a->count(EventType::kSleep), 1u);
  EXPECT_EQ(b->count(EventType::kWake), 1u);
}

TEST(EventBus, CountsEmittedEventsInRegistry) {
  EventBus bus;
  bus.add_sink(std::make_shared<CountingSink>());
  bus.emit(make(EventType::kMigration, 0));
  bus.emit(make(EventType::kDemandReport, 1));
  EXPECT_EQ(bus.metrics().snapshot().counter_or_zero("obs.events_emitted"),
            2u);
}

TEST(RingBufferSink, EvictsOldestBeyondCapacity) {
  RingBufferSink ring(2);
  ring.on_event(make(EventType::kDrop, 1));
  ring.on_event(make(EventType::kDrop, 2));
  ring.on_event(make(EventType::kDrop, 3));
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events()[0].node, 2u);
  EXPECT_EQ(ring.events()[1].node, 3u);
  EXPECT_EQ(ring.total_seen(), 3u);
}

TEST(JsonlTraceSink, WritesHeaderAndOneLinePerEvent) {
  std::ostringstream os;
  JsonlTraceSink sink(os);
  sink.on_event(make(EventType::kMigration, 5, 2.5));
  sink.flush();
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"migration\""), std::string::npos);
  EXPECT_EQ(sink.lines_written(), 1u);
  // Header + one event line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(JsonlTraceSink, PathFormStartsWithTheSchemaHeader) {
  std::ostringstream header;
  { JsonlTraceSink stream_sink(header); }
  const std::string path = ::testing::TempDir() + "/jsonl_sink_test.jsonl";
  {
    JsonlTraceSink sink(path);
    sink.on_event(make(EventType::kMigration, 5, 2.5));
    sink.flush();
    EXPECT_EQ(sink.lines_written(), 1u);
  }
  std::ifstream in(path);
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  EXPECT_EQ(first + "\n", header.str());
  EXPECT_NE(second.find("\"type\":\"migration\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonlTraceSink, UnopenablePathThrows) {
  const std::string path =
      ::testing::TempDir() + "/no_such_directory/trace.jsonl";
  EXPECT_THROW(JsonlTraceSink{path}, std::runtime_error);
}

TEST(EventNames, StableIdentifiers) {
  EXPECT_STREQ(to_string(EventType::kBudgetDirective), "budget_directive");
  EXPECT_STREQ(to_string(EventType::kLinkMessage), "link_message");
  EXPECT_STREQ(to_string(Reason::kSupplyDeficit), "supply_deficit");
  EXPECT_STREQ(to_string(Reason::kShedding), "shedding");
  EXPECT_STREQ(to_string(LinkDirection::kDown), "down");
}

TEST(EventNames, EveryTypeIsNamedUniquelyAndCounted) {
  const auto last = static_cast<int>(EventType::kUpsRestore);
  std::set<std::string> names;
  CountingSink counter;
  for (int i = 0; i <= last; ++i) {
    const auto type = static_cast<EventType>(i);
    const std::string name = to_string(type);
    EXPECT_NE(name, "unknown") << "type " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    counter.on_event(make(type, 0));
  }
  EXPECT_EQ(counter.total(), static_cast<std::uint64_t>(last + 1));
  for (int i = 0; i <= last; ++i) {
    EXPECT_EQ(counter.count(static_cast<EventType>(i)), 1u) << "type " << i;
  }
}

}  // namespace
}  // namespace willow::obs
