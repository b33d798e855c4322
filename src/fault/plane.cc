#include "fault/plane.h"

#include "util/rng.h"

namespace willow::fault {

FaultPlane::FaultPlane(const FaultConfig& config, std::uint64_t seed,
                       std::size_t n_servers)
    : config_(config), seed_(seed), state_(n_servers), plan_(n_servers) {}

template <typename Rng>
bool FaultPlane::sample_sensor(Rng& rng, const SensorFaultKnobs& knobs,
                               double mean_ticks, long tick,
                               SensorEpisode* out) {
  const bool stuck = rng.chance(knobs.stuck_probability);
  const bool bias = rng.chance(knobs.bias_probability);
  const bool dropout = rng.chance(knobs.dropout_probability);
  // The episode-length uniform is drawn on every call, onset or not, so the
  // stream's position never depends on the outcome; its log is taken only
  // when an onset fires.
  const double u = mean_ticks > 1.0 ? rng.canonical() : 0.0;
  if (!stuck && !bias && !dropout) return false;
  // Episodes last at least one tick; the exponential tail reproduces the
  // bursty multi-tick outages real telemetry shows.
  const double extra =
      mean_ticks > 1.0 ? util::exponential_of(u, mean_ticks - 1.0) : 0.0;
  out->mode = stuck ? SensorMode::kStuck
                    : (bias ? SensorMode::kBias : SensorMode::kDropout);
  out->param = out->mode == SensorMode::kBias ? knobs.bias : 0.0;
  out->until_tick = tick + 1 + static_cast<long>(extra);
  return true;
}

bool FaultPlane::needs_sampling() const {
  return config_.power_sensor.any() || config_.temp_sensor.any() ||
         config_.crash_probability > 0.0;
}

void FaultPlane::begin_tick() { plan_.assign(state_.size(), {}); }

void FaultPlane::sample_range(long tick, std::size_t begin, std::size_t end,
                              const Callbacks& cb) {
  const bool sensors = config_.power_sensor.any() || config_.temp_sensor.any();
  const bool crashes = config_.crash_probability > 0.0;
  const util::TickStreams streams(seed_, static_cast<std::uint64_t>(tick));
  for (std::size_t i = begin; i < end; ++i) {
    auto& p = plan_[i];
    const auto& st = state_[i];
    if (sensors) {
      auto rng = streams(i, util::stream_phase::kSensor);
      // Fixed draw order: power sensor first, then temperature.
      // Onsets are proposed regardless of current state (the draws
      // must not depend on mutable episode state) and discarded in
      // the serial phase if an episode is already active.
      p.power_onset =
          sample_sensor(rng, config_.power_sensor,
                        config_.sensor_fault_mean_ticks, tick, &p.power);
      p.temp_onset = sample_sensor(rng, config_.temp_sensor,
                                   config_.sensor_fault_mean_ticks, tick,
                                   &p.temp);
    }
    if (crashes && !st.down && !(cb.skip_crash && cb.skip_crash(i))) {
      auto rng = streams(i, util::stream_phase::kCrash);
      p.crash = rng.chance(config_.crash_probability);
    }
  }
}

void FaultPlane::step(long tick, util::ThreadPool* pool, const Callbacks& cb) {
  if (needs_sampling()) {
    begin_tick();
    util::parallel_for_ranges(pool, state_.size(),
                              [&](std::size_t begin, std::size_t end) {
                                sample_range(tick, begin, end, cb);
                              });
  }
  apply(tick, cb);
}

void FaultPlane::apply(long tick, const Callbacks& cb) {
  const std::size_t n = state_.size();

  // Apply phase: fixed server order, scheduled events before samples so a
  // scripted outage at tick T is not pre-empted by a probabilistic crash.
  for (const auto& ev : config_.crash_events) {
    if (ev.tick != tick) continue;
    for (std::size_t i = ev.first_server; i <= ev.last_server && i < n; ++i) {
      auto& st = state_[i];
      if (st.down || (cb.skip_crash && cb.skip_crash(i))) continue;
      st.down = true;
      st.up_at = tick + (ev.down_ticks < 1 ? 1 : ev.down_ticks);
      if (cb.crash) cb.crash(i, st.up_at - tick);
    }
  }

  // Without probabilistic sources the plan stays all-empty (nothing samples
  // into it), so the loop below only restarts scheduled crashes.
  for (std::size_t i = 0; i < n; ++i) {
    auto& st = state_[i];

    // Restarts first: a server that comes back this tick rejoins the
    // control plane before any new fault can hit it next tick.
    if (st.down && tick >= st.up_at) {
      st.down = false;
      if (cb.restart) cb.restart(i);
    }

    const auto& p = plan_[i];
    if (p.crash && !st.down) {
      st.down = true;
      st.up_at =
          tick + (config_.crash_down_ticks < 1 ? 1 : config_.crash_down_ticks);
      if (cb.crash) cb.crash(i, st.up_at - tick);
    }

    // Sensor episode expiry, then (if healthy) onset.
    auto advance = [&](SensorEpisode& ep, bool onset,
                       const SensorEpisode& proposed, bool is_temp) {
      if (ep.mode != SensorMode::kOk && tick >= ep.until_tick) {
        ep = SensorEpisode{};
        if (cb.sensor) cb.sensor(i, SensorOverride{}, is_temp);
      }
      if (ep.mode == SensorMode::kOk && onset && !st.down) {
        ep = proposed;
        if (cb.sensor) {
          cb.sensor(i, SensorOverride{ep.mode, ep.param}, is_temp);
        }
      }
    };
    advance(st.power, p.power_onset, p.power, /*is_temp=*/false);
    advance(st.temp, p.temp_onset, p.temp, /*is_temp=*/true);
  }
}

}  // namespace willow::fault
