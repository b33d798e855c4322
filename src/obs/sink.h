// Pluggable event sinks.
//
//   JsonlTraceSink   one JSON object per line; the machine-readable audit
//                    stream (jq / pandas friendly).  Byte-deterministic: the
//                    bytes are a pure function of the event sequence, which
//                    the bus guarantees is a pure function of the scenario.
//   RingBufferSink   in-memory tail of the stream, for tests and the CLI.
//   CountingSink     per-type event counts, no storage (overhead probes).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/bus.h"

namespace willow::obs {

/// Version of the JSONL trace line schema; bumped when line shape changes.
constexpr int kTraceSchemaVersion = 1;

class JsonlTraceSink final : public Sink {
 public:
  /// Write to a caller-owned stream.  A one-line header carrying the schema
  /// version is written immediately.
  explicit JsonlTraceSink(std::ostream& os);
  /// Open (truncate) `path` and write there; throws if unopenable.
  explicit JsonlTraceSink(const std::string& path);

  void on_event(const Event& event) override;
  void flush() override;

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream& os_;
  std::uint64_t lines_ = 0;
};

/// Keeps the most recent `capacity` events (and a total count).
class RingBufferSink final : public Sink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void on_event(const Event& event) override;

  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  [[nodiscard]] std::uint64_t total_seen() const { return total_; }
  void clear();

 private:
  std::size_t capacity_;
  std::deque<Event> events_;
  std::uint64_t total_ = 0;
};

/// Counts events by type; stores nothing.  Useful for overhead probes and
/// cross-checking trace line counts against registry counters.
class CountingSink final : public Sink {
 public:
  void on_event(const Event& event) override;

  [[nodiscard]] std::uint64_t count(EventType type) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::array<std::uint64_t, 32> by_type_{};
  std::uint64_t total_ = 0;
};

}  // namespace willow::obs
