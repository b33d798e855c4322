// The event bus: emitters on one side, pluggable sinks on the other.
//
// Emission discipline (the determinism contract): only serial code emits.
// Events reach the sinks immediately, in call order.  A sharded phase (the
// simulator's parallel_for_ranges batches) emits nothing from its workers;
// when it has events to report it emits them on the driving thread after the
// batch returns, in ascending slot order, so the stream is a pure function
// of the configuration — bit-identical for any SimConfig::threads.
//
// The bus stamps every event with the current tick (set_tick) so emitters
// deep in the stack need no tick plumbing.  With no sinks attached the bus
// is disabled and every emission path is a cheap branch; emitters should
// gate event construction on enabled() so tracing-off runs pay nothing.
//
// The bus also owns the run's MetricsRegistry: one wiring point hands a
// subsystem both its event stream and its instruments.
#pragma once

#include <memory>
#include <vector>

#include "obs/event.h"
#include "obs/metrics.h"

namespace willow::obs {

/// Receives every event the bus dispatches.  Implementations live in
/// obs/sink.h (JSONL trace writer, ring buffer); tests write their own.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& event) = 0;
  /// Called when the producer finished a run (flush file buffers etc.).
  virtual void flush() {}
};

class EventBus {
 public:
  void add_sink(std::shared_ptr<Sink> sink);

  /// True once any sink is attached; emitters gate on this.
  [[nodiscard]] bool enabled() const { return !sinks_.empty(); }

  /// Current tick, stamped onto every event at dispatch.
  void set_tick(long tick) { tick_ = tick; }
  [[nodiscard]] long tick() const { return tick_; }

  /// Stamp the tick and dispatch to every sink immediately.
  void emit(Event event);

  /// Ask all sinks to flush (end of run).
  void flush();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  std::vector<std::shared_ptr<Sink>> sinks_;
  MetricsRegistry metrics_;
  long tick_ = 0;
};

}  // namespace willow::obs
