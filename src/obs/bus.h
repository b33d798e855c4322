// The event bus: emitters on one side, pluggable sinks on the other.
//
// Emission discipline (the determinism contract):
//
//   * Serial code (controller phases, tree sweeps, UPS stepping) calls
//     emit(); events reach the sinks immediately, in call order.
//   * Sharded code (the simulator's parallel_for_ranges phases) must NOT
//     call emit() — workers would interleave nondeterministically.  Instead
//     the phase brackets itself with begin_shards(n) / end_shards() and each
//     worker deposits via emit_shard(slot, e) into the slot it owns (slot ==
//     server index; the range partition gives each index to exactly one
//     worker, so slots need no locks).  end_shards() drains the slots in
//     ascending index order, making the merged stream a pure function of the
//     configuration — bit-identical for any SimConfig::threads.
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

  /// Serial emission: stamp the tick and dispatch immediately.
  void emit(Event event);

  /// Bracket a sharded phase: size (and clear) the per-slot staging area.
  void begin_shards(std::size_t slots);
  /// Deposit from a worker into the slot it owns.  No locking: each slot
  /// must be written by exactly one worker per phase.
  void emit_shard(std::size_t slot, Event event);
  /// Drain slots 0..n-1 in order through the sinks and clear the staging.
  void end_shards();

  /// Ask all sinks to flush (end of run).
  void flush();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  void dispatch(const Event& event);

  /// One staging slot per server, padded to a cache line: neighbouring slots
  /// are written by different workers during a sharded phase (the chunk
  /// partition hands adjacent indices to whoever claims the chunk), and an
  /// unpadded vector header is 24 bytes — three slots per line, i.e. false
  /// sharing on every boundary push_back.
  struct alignas(64) ShardSlot {
    std::vector<Event> events;
  };

  std::vector<std::shared_ptr<Sink>> sinks_;
  std::vector<ShardSlot> shard_staging_;
  MetricsRegistry metrics_;
  long tick_ = 0;
};

}  // namespace willow::obs
