#include "obs/bus.h"

#include <stdexcept>

namespace willow::obs {

void EventBus::add_sink(std::shared_ptr<Sink> sink) {
  if (!sink) throw std::invalid_argument("EventBus: null sink");
  sinks_.push_back(std::move(sink));
}

void EventBus::emit(Event event) {
  if (!enabled()) return;
  event.tick = tick_;
  metrics_.counter("obs.events_emitted").increment();
  for (const auto& sink : sinks_) sink->on_event(event);
}

void EventBus::flush() {
  for (const auto& sink : sinks_) sink->flush();
}

}  // namespace willow::obs
