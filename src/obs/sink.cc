#include "obs/sink.h"

#include <stdexcept>

#include "util/json.h"

namespace willow::obs {

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(os) {
  util::JsonWriter w(os_);
  w.begin_object();
  w.key("schema_version").value(kTraceSchemaVersion);
  w.key("stream").value("willow_trace");
  w.end_object();
  w.finish();
  os_ << '\n';
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)),
      os_(*owned_) {
  if (!*owned_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
  util::JsonWriter w(os_);
  w.begin_object();
  w.key("schema_version").value(kTraceSchemaVersion);
  w.key("stream").value("willow_trace");
  w.end_object();
  w.finish();
  os_ << '\n';
}

void JsonlTraceSink::on_event(const Event& e) {
  util::JsonWriter w(os_);
  w.begin_object();
  w.key("t").value(static_cast<long long>(e.tick));
  w.key("type").value(to_string(e.type));
  if (e.node != kNoNode) w.key("node").value(static_cast<long long>(e.node));
  if (e.node2 != kNoNode) {
    w.key("node2").value(static_cast<long long>(e.node2));
  }
  if (e.app != 0) w.key("app").value(static_cast<long long>(e.app));
  if (e.reason != Reason::kNone) w.key("reason").value(to_string(e.reason));
  if (e.type == EventType::kLinkMessage || e.type == EventType::kLinkDrop ||
      e.type == EventType::kLinkDefer) {
    w.key("dir").value(to_string(e.direction));
  }
  w.key("v").value(e.value);
  if (e.aux != 0.0) w.key("aux").value(e.aux);
  w.end_object();
  w.finish();
  os_ << '\n';
  ++lines_;
}

void JsonlTraceSink::flush() { os_.flush(); }

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("RingBufferSink: capacity must be > 0");
  }
}

void RingBufferSink::on_event(const Event& e) {
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(e);
  ++total_;
}

void RingBufferSink::clear() {
  events_.clear();
  total_ = 0;
}

void CountingSink::on_event(const Event& e) {
  const auto idx = static_cast<std::size_t>(e.type);
  if (idx < by_type_.size()) ++by_type_[idx];
  ++total_;
}

std::uint64_t CountingSink::count(EventType type) const {
  const auto idx = static_cast<std::size_t>(type);
  return idx < by_type_.size() ? by_type_[idx] : 0;
}

}  // namespace willow::obs
