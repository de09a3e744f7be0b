#include "system/oscillator_system.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/error.h"
#include "numeric/rk4.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::system {

double SimulationResult::settled_amplitude(double tail_fraction) const {
  LCOSC_REQUIRE(tail_fraction > 0.0 && tail_fraction <= 1.0, "tail fraction in (0,1]");
  LCOSC_REQUIRE(!envelope.empty(), "no envelope recorded");
  const double t0 =
      envelope.end_time() - tail_fraction * (envelope.end_time() - envelope.start_time());
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    if (envelope.time(i) >= t0) {
      acc += envelope.value(i);
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

int SimulationResult::first_fault_tick() const {
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (ticks[i].faults.any()) return static_cast<int>(i);
  }
  return -1;
}

OscillatorSystem::OscillatorSystem(OscillatorSystemConfig config)
    : config_(config),
      driver_(config.driver),
      detector_(config.detector),
      fsm_(config.regulation),
      safety_(config.safety) {
  LCOSC_REQUIRE(config_.steps_per_period >= 16,
                "need at least 16 integration steps per period");
  LCOSC_REQUIRE(config_.startup_kick > 0.0, "startup kick must be positive");
  // Validate the tank through its invariants.
  (void)tank::RlcTank(config_.tank);
  attach_fault_bus();
}

void OscillatorSystem::attach_fault_bus() {
  driver_.attach_fault_bus(&fault_bus_);
  detector_.attach_fault_bus(&fault_bus_);
  fsm_.attach_fault_bus(&fault_bus_);
  safety_.attach_fault_bus(&fault_bus_);
}

void OscillatorSystem::schedule_fault(tank::TankFault fault, double at_time,
                                      const tank::FaultSeverity& severity) {
  schedule_event(at_time, FaultEvent{fault, severity});
}

void OscillatorSystem::schedule_internal_fault(const faults::InternalFault& fault,
                                               double at_time) {
  schedule_event(at_time, InternalFaultEvent{fault});
}

void OscillatorSystem::schedule_event(double at_time, ScenarioAction action) {
  LCOSC_REQUIRE(at_time >= 0.0, "event time must be non-negative");
  events_.push_back({at_time, std::move(action)});
  std::sort(events_.begin(), events_.end(),
            [](const TimedEvent& a, const TimedEvent& b) { return a.time < b.time; });
}

OscillatorSystem::TankState OscillatorSystem::derivatives(const TankState& s,
                                                          const ActiveTank& t) const {
  const driver::NodeCurrents drv = driver_.output(s[kV1], s[kV2]);
  const double il = t.loop_open ? 0.0 : s[kIl];

  // Finite driver speed: the delivered currents lag the ideal cross-coupled
  // response with a single pole at driver_bandwidth.
  const bool slow_driver = config_.driver_bandwidth > 0.0;
  const double w_drv = kTwoPi * config_.driver_bandwidth;
  const double i1 = slow_driver ? s[kI1] : drv.into_lc1;
  const double i2 = slow_driver ? s[kI2] : drv.into_lc2;

  // Soft rail clamps (ESD/junction paths) keep faulted scenarios bounded.
  const double v_rail_hi = config_.vdd - config_.vref_dc;
  const double v_rail_lo = -config_.vref_dc;
  const double g_rail = 2e-3;
  auto rail_current = [&](double v) {
    if (v > v_rail_hi) return -g_rail * (v - v_rail_hi);
    if (v < v_rail_lo) return g_rail * (v_rail_lo - v);
    return 0.0;
  };

  TankState d{};
  if (t.pin1_grounded || t.pin1_to_supply) {
    d[kV1] = 0.0;  // pin voltage frozen at the short level
  } else {
    d[kV1] = (i1 - il + rail_current(s[kV1])) / t.config.capacitance1;
  }
  if (t.pin2_grounded) {
    d[kV2] = 0.0;
  } else {
    d[kV2] = (i2 + il + rail_current(s[kV2])) / t.config.capacitance2;
  }
  if (t.loop_open) {
    d[kIl] = 0.0;
  } else {
    d[kIl] = ((s[kV1] - s[kV2]) - t.config.series_resistance * s[kIl]) /
             t.config.inductance;
  }
  if (slow_driver) {
    d[kI1] = (drv.into_lc1 - s[kI1]) * w_drv;
    d[kI2] = (drv.into_lc2 - s[kI2]) * w_drv;
  }
  return d;
}

OscillatorSystem::RunState OscillatorSystem::begin_run(double duration) {
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");

  const tank::RlcTank healthy(config_.tank);

  RunState rs;
  rs.duration = duration;
  rs.dt = 1.0 / (healthy.resonance_frequency() * config_.steps_per_period);

  // Re-attach and clear the fault bus (a copied system would otherwise
  // still observe the bus of the instance it was copied from).
  attach_fault_bus();
  fault_bus_.clear();
  for (const TimedEvent& ev : events_) {
    if (const auto* ie = std::get_if<InternalFaultEvent>(&ev.action)) {
      LCOSC_REQUIRE(
          ie->fault.kind != faults::InternalFaultKind::SelfTestStall ||
              config_.step_budget > 0,
          "a stall fault needs a positive step_budget to terminate the run");
    }
  }

  // Reset all subsystems.
  detector_.reset();
  safety_.reset(0.0);
  fsm_.por_reset();
  driver_.set_code(fsm_.code());
  driver_.set_enabled(true);

  rs.active.config = config_.tank;

  rs.s[kV1] = 0.5 * config_.startup_kick;
  rs.s[kV2] = -0.5 * config_.startup_kick;

  rs.result.differential.set_name("v_diff");
  rs.result.v_lc1.set_name("v_lc1");
  rs.result.v_lc2.set_name("v_lc2");
  rs.result.envelope.set_name("envelope");

  rs.record = config_.waveform_decimation > 0;
  rs.total_steps = static_cast<std::size_t>(std::ceil(duration / rs.dt));
  if (rs.record) {
    const std::size_t samples =
        rs.total_steps / static_cast<std::size_t>(config_.waveform_decimation) + 2;
    rs.result.differential.reserve(samples);
    rs.result.v_lc1.reserve(samples);
    rs.result.v_lc2.reserve(samples);
  }

  rs.next_tick = fsm_.config().tick_period;
  rs.envelope.last_positive = rs.s[kV1] - rs.s[kV2] >= 0.0;
  return rs;
}

void OscillatorSystem::advance_run(RunState& rs, double stop_time) {
  const double dt = rs.dt;
  TankState& s = rs.s;
  SimulationResult& result = rs.result;

  while (rs.step < rs.total_steps) {
    // Pause at the loop top: exactly the position where an event
    // scheduled at stop_time would fire on the next iteration.
    if (rs.t >= stop_time) return;
    ++rs.steps_taken;
    if (config_.step_budget > 0 && rs.steps_taken > config_.step_budget) {
      throw BudgetExceededError("integration step budget exceeded (" +
                                std::to_string(config_.step_budget) + " steps)");
    }
    // Discrete events at the step boundary.
    if (!rs.nvm_applied && rs.t >= fsm_.config().nvm_delay) {
      fsm_.apply_nvm_preset();
      driver_.set_code(fsm_.code());
      rs.nvm_applied = true;
    }
    while (rs.next_event < events_.size() && rs.t >= events_[rs.next_event].time) {
      const ScenarioAction& action = events_[rs.next_event].action;
      if (const auto* fe = std::get_if<FaultEvent>(&action)) {
        const tank::FaultedTank faulted =
            tank::apply_fault(config_.tank, fe->fault, fe->severity);
        rs.active.config = faulted.config;
        rs.active.loop_open = faulted.loop_open;
        rs.active.pin1_grounded = faulted.pin1_grounded;
        rs.active.pin2_grounded = faulted.pin2_grounded;
        rs.active.pin1_to_supply = faulted.pin1_to_supply;
        if (rs.active.loop_open) s[kIl] = 0.0;
        if (rs.active.pin1_grounded) s[kV1] = -config_.vref_dc;
        if (rs.active.pin1_to_supply) s[kV1] = config_.vdd - config_.vref_dc;
        if (rs.active.pin2_grounded) s[kV2] = -config_.vref_dc;
      } else if (std::get_if<RecoveryEvent>(&action)) {
        // Components repaired + diagnostic reset: healthy tank back,
        // detectors cleared, safe-state latch released.  Re-kick the
        // oscillation in case it had fully collapsed.
        rs.active = ActiveTank{};
        rs.active.config = config_.tank;
        safety_.reset(rs.t);
        fsm_.clear_safe_state();
        driver_.set_code(fsm_.code());
        if (std::abs(s[kV1] - s[kV2]) < config_.startup_kick) {
          s[kV1] = 0.5 * config_.startup_kick;
          s[kV2] = -0.5 * config_.startup_kick;
          s[kIl] = 0.0;
        }
      } else if (const auto* te = std::get_if<TemperatureEvent>(&action)) {
        detector_.set_temperature(te->kelvin);
      } else if (const auto* ie = std::get_if<InternalFaultEvent>(&action)) {
        fault_bus_.inject(ie->fault);
        if (ie->fault.kind == faults::InternalFaultKind::SelfTestThrow) {
          throw ConvergenceError("self-test fault: injected convergence failure at t=" +
                                 std::to_string(rs.t));
        }
      }
      ++rs.next_event;
    }

    if (fault_bus_.stalled()) {
      // Frozen simulation clock: t no longer advances, so the loop can
      // only end through the step budget (enforced above).
      continue;
    }

    rk4_step(s, dt, [&](const TankState& x) { return derivatives(x, rs.active); });
    rs.t += dt;

    const double vd = s[kV1] - s[kV2];
    if (!std::isfinite(vd) || !std::isfinite(s[kIl])) {
      throw ConvergenceError("tank state diverged (non-finite) at t=" +
                             std::to_string(rs.t));
    }
    detector_.step(dt, s[kV1], s[kV2]);
    safety_.step(rs.t, dt, s[kV1], s[kV2]);
    rs.envelope.track(result.envelope, rs.t, vd);

    if (rs.record &&
        rs.step % static_cast<std::size_t>(config_.waveform_decimation) == 0) {
      result.differential.append(rs.t, vd);
      result.v_lc1.append(rs.t, s[kV1]);
      result.v_lc2.append(rs.t, s[kV2]);
    }

    // Regulation tick every 1 ms.
    if (rs.t >= rs.next_tick) {
      if (safety_.safe_state_requested()) {
        fsm_.enter_safe_state();
      } else {
        fsm_.tick(detector_.window_state());
      }
      driver_.set_code(fsm_.code());

      TickRecord tick;
      tick.time = rs.t;
      tick.code = fsm_.code();
      tick.vdc1 = detector_.vdc1();
      tick.window = detector_.window_state();
      tick.faults = safety_.flags();
      const double amplitude =
          regulation::AmplitudeDetector::vdc1_to_amplitude(detector_.vdc1());
      tick.supply_current = driver_.supply_current(amplitude);
      result.ticks.push_back(tick);

      rs.next_tick += fsm_.config().tick_period;
    }
    ++rs.step;
  }
}

SimulationResult OscillatorSystem::finish_run(RunState& rs) {
  rs.result.final_faults = safety_.flags();
  rs.result.final_code = fsm_.code();
  rs.result.final_mode = fsm_.mode();
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& runs = registry.counter("system.runs");
    static obs::Counter& steps = registry.counter("system.steps");
    static obs::Counter& ticks = registry.counter("system.ticks");
    runs.add(1);
    steps.add(rs.total_steps);
    ticks.add(rs.result.ticks.size());
  }
  return std::move(rs.result);
}

SimulationResult OscillatorSystem::run(double duration) {
  LCOSC_SPAN("system.run");
  RunState rs = begin_run(duration);
  advance_run(rs, std::numeric_limits<double>::infinity());
  return finish_run(rs);
}

RunSession::RunSession(const OscillatorSystem& system, double duration)
    : system_(system), state_(system_.begin_run(duration)) {}

RunSession::RunSession(const RunSession& other)
    : system_(other.system_), state_(other.state_) {
  // The copied subsystems still observe the source session's fault bus;
  // repoint them at the copy's own (bit-identical) bus.
  system_.attach_fault_bus();
}

void RunSession::advance_until(double stop_time) {
  system_.advance_run(state_, stop_time);
}

void RunSession::inject_internal_fault(const faults::InternalFault& fault) {
  LCOSC_REQUIRE(state_.next_event >= system_.events_.size(),
                "inject_internal_fault requires a session with no pending events");
  LCOSC_REQUIRE(fault.kind != faults::InternalFaultKind::SelfTestStall ||
                    system_.config_.step_budget > 0,
                "a stall fault needs a positive step_budget to terminate the run");
  system_.events_.push_back({state_.t, InternalFaultEvent{fault}});
}

SimulationResult RunSession::finish() {
  LCOSC_SPAN("system.run_session");
  system_.advance_run(state_, std::numeric_limits<double>::infinity());
  return system_.finish_run(state_);
}

}  // namespace lcosc::system
