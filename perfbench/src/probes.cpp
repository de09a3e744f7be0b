#include "probes.h"

#include <cmath>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "checks.h"
#include "workloads.h"
#include "common/constants.h"
#include "common/units.h"
#include "dac/current_mirror.h"
#include "devices/batched_blocks.h"
#include "devices/rectifier.h"
#include "driver/oscillator_driver.h"
#include "driver/output_stage.h"
#include "numeric/lu.h"
#include "obs/metrics.h"
#include "regulation/amplitude_detector.h"
#include "regulation/regulation_fsm.h"
#include "safety/safety_controller.h"
#include "spice/netlist_parser.h"
#include "system/dual_system.h"
#include "system/magnetic_sensor.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"

namespace perfbench {

using namespace lcosc;
using namespace lcosc::literals;

namespace {

// Keeps results alive so the optimiser cannot drop the timed calls.
volatile double g_sink = 0.0;

// Median over `batches` of the time per call of `calls` calls of body(i).
template <typename Fn>
double per_call_s(int batches, std::size_t calls, Fn&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double start = now_s();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    per_call.push_back((now_s() - start) / static_cast<double>(calls));
  }
  return median(per_call);
}

// One 4 MHz period of a 2.7 V differential swing around Vref, sampled at
// the engines' 64 steps per period.
struct PinSamples {
  static constexpr std::size_t kCount = 64;
  static constexpr double kDt = 1.0 / (4.0e6 * kCount);
  double v1[kCount];
  double v2[kCount];
  PinSamples() {
    for (std::size_t i = 0; i < kCount; ++i) {
      const double phase = 2.0 * std::numbers::pi * static_cast<double>(i) / kCount;
      v1[i] = 1.35 * std::sin(phase);
      v2[i] = -v1[i];
    }
  }
};

tank::TankConfig probe_tank() { return tank::design_tank(4.0_MHz, 40.0, 3.3_uH); }

void probe_numeric_and_spice(LayerReport& report, SpanLog* spans) {
  driver::UnsuppliedDriverTestbench fig11(driver::OutputStageTopology::BulkSwitched);

  // LU factor + solve at the MNA size of the Fig. 11 testbench.
  const std::size_t n = fig11.circuit().unknown_count();
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = std::sin(1.0 + 3.0 * r + 7.0 * c);
    a(r, r) += static_cast<double>(n);
  }
  const Vector b(n, 1.0);
  LuDecomposition lu;
  Vector x;
  timed(spans, "probe.numeric.lu", -1, [&] {
    report["numeric.lu_factor_solve_us"] = 1e6 * per_call_s(21, 200, [&](std::size_t) {
      lu.factor(a);
      lu.try_solve(b, x);
      g_sink = g_sink + x[0];
    });
  });

  timed(spans, "probe.spice.testbench_build", -1, [&] {
    report["spice.testbench_build_us"] = 1e6 * per_call_s(11, 10, [&](std::size_t) {
      driver::UnsuppliedDriverTestbench tb(driver::OutputStageTopology::BulkSwitched);
      g_sink = g_sink + static_cast<double>(tb.circuit().unknown_count());
    });
  });

  std::ifstream in("netlists/fig11_output_stage.sp");
  if (!in) throw std::runtime_error("cannot read netlists/fig11_output_stage.sp");
  std::ostringstream text;
  text << in.rdbuf();
  timed(spans, "probe.spice.netlist_parse", -1, [&] {
    report["spice.netlist_parse_us"] = 1e6 * per_call_s(11, 10, [&](std::size_t) {
      g_sink = g_sink + static_cast<double>(spice::parse_netlist(text.str())->unknown_count());
    });
  });

  // DC sweep cost per point over the three topologies' 61-point sweeps.
  double points = 0.0;
  const double dc_s = timed(spans, "probe.spice.dc_sweep", -1, [&] {
    for (const auto topology :
         {driver::OutputStageTopology::StandardCmos, driver::OutputStageTopology::SeriesPmos,
          driver::OutputStageTopology::BulkSwitched}) {
      driver::UnsuppliedDriverTestbench tb(topology);
      points += static_cast<double>(tb.sweep(-3.0, 3.0, 61).points.size());
    }
  });
  report["spice.dc_point_us"] = 1e6 * dc_s / points;

  // Transient step of bench_crossvalidation's pair at a 1 mA tail.
  const double tr_s = timed(spans, "probe.spice.transient", -1, [&] {
    g_sink = g_sink + run_pair_transient(1e-3).amplitude;
  });
  report["spice.transient_step_us"] = 1e6 * tr_s / kPairTransientSteps;
}

void probe_blocks(LayerReport& report, SpanLog* spans) {
  const PinSamples pins;
  constexpr std::size_t kCalls = 4 * PinSamples::kCount * 64;
  const auto pin = [&](std::size_t i) { return i % PinSamples::kCount; };

  timed(spans, "probe.blocks", -1, [&] {
    driver::OscillatorDriver drv;
    drv.set_enabled(true);
    drv.set_code(64);
    report["driver.output_ns"] = 1e9 * per_call_s(21, kCalls, [&](std::size_t i) {
      g_sink = g_sink + drv.output(pins.v1[pin(i)], pins.v2[pin(i)]).into_lc1;
    });
    // A code change: set_code plus the stage rebuild it triggers on the
    // next output().
    report["driver.set_code_ns"] = 1e9 * per_call_s(21, 4096, [&](std::size_t i) {
      drv.set_code(static_cast<int>(i % 128));
      g_sink = g_sink + drv.output(pins.v1[pin(i)], pins.v2[pin(i)]).into_lc1;
    });

    regulation::AmplitudeDetector detector;
    report["regulation.detector_step_ns"] = 1e9 * per_call_s(21, kCalls, [&](std::size_t i) {
      detector.step(PinSamples::kDt, pins.v1[pin(i)], pins.v2[pin(i)]);
    });
    g_sink = g_sink + detector.vdc1();

    regulation::RegulationFsm fsm;
    fsm.por_reset();
    constexpr devices::WindowState kPattern[4] = {
        devices::WindowState::Below, devices::WindowState::Inside, devices::WindowState::Above,
        devices::WindowState::Inside};
    report["regulation.fsm_tick_ns"] = 1e9 * per_call_s(21, 4096, [&](std::size_t i) {
      g_sink = g_sink + fsm.tick(kPattern[i % 4]);
    });

    safety::SafetyController safety;
    safety.reset(0.0);
    double t = 0.0;
    report["safety.step_ns"] = 1e9 * per_call_s(21, kCalls, [&](std::size_t i) {
      t += PinSamples::kDt;
      g_sink = g_sink + safety.step(t, PinSamples::kDt, pins.v1[pin(i)], pins.v2[pin(i)]);
    });

    devices::SynchronousRectifierFilter sync(50e-6);
    report["devices.sync_rectifier_step_ns"] =
        1e9 * per_call_s(21, kCalls, [&](std::size_t i) {
          g_sink = g_sink + sync.step(PinSamples::kDt, pins.v1[pin(i)], pins.v2[pin(i)]);
        });

    constexpr std::size_t kLanes = 64;
    devices::LowPassBank bank(50e-6, kLanes);
    std::vector<double> inputs(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) inputs[l] = 0.8 + 0.001 * static_cast<double>(l);
    report["devices.bank_lane_ns"] =
        1e9 * per_call_s(21, 1024, [&](std::size_t) { bank.step(2e-6, inputs); }) / kLanes;
    g_sink = g_sink + bank.output(0);

    system::MagneticSensorConfig mcfg;
    mcfg.tank = probe_tank();
    const system::MagneticSensorSystem sensor(mcfg);
    const Vector voltages = {0.5, -0.2, 0.1};
    report["tank.current_derivatives_ns"] = 1e9 * per_call_s(21, 4096, [&](std::size_t) {
      g_sink = g_sink + sensor.magnetics().current_derivatives(voltages)[0];
    });

    report["dac.mismatched_dac_us"] = 1e6 * per_call_s(11, 20, [&](std::size_t i) {
      const dac::CurrentLimitationDac mirror(kDacUnitCurrent, dac::MismatchConfig{}, 1000 + i);
      g_sink = g_sink + mirror.output_current(64);
    });
  });
}

void probe_systems(LayerReport& report, SpanLog* spans) {
  system::OscillatorSystemConfig cfg;
  cfg.tank = probe_tank();
  cfg.regulation.tick_period = 0.25e-3;
  cfg.waveform_decimation = 0;

  std::vector<double> per_step;
  for (int k = 0; k < 3; ++k) {
    const double s = timed(spans, "probe.system.run", -1, [&] {
      system::OscillatorSystem sys(cfg);
      g_sink = g_sink + sys.run(2e-3).final_code;
    });
    per_step.push_back(s / rk4_steps(2e-3, cfg.tank));
  }
  report["system.step_ns"] = 1e9 * median(per_step);

  const double settle = timed(spans, "probe.system.settle", -1, [&] {
    const system::OscillatorSystem sys(cfg);
    system::RunSession session(sys, 16e-3);
    session.advance_until(6e-3);
    g_sink = g_sink + session.time();
  });
  report["system.settle_ms"] = settle * 1e3;

  system::MagneticSensorConfig mcfg;
  mcfg.tank = probe_tank();
  mcfg.regulation.tick_period = 0.25e-3;
  per_step.clear();
  for (int k = 0; k < 3; ++k) {
    const double s = timed(spans, "probe.system.magnetic", -1, [&] {
      system::MagneticSensorSystem sys(mcfg);
      g_sink = g_sink + sys.run(1e-3).final_code;
    });
    per_step.push_back(s / rk4_steps(1e-3, mcfg.tank));
  }
  report["system.magnetic_step_ns"] = 1e9 * median(per_step);

  system::DualSystemConfig dcfg;
  dcfg.tanks.tank1 = probe_tank();
  dcfg.tanks.tank2 = dcfg.tanks.tank1;
  dcfg.tanks.coupling = 0.15;
  dcfg.regulation.tick_period = 0.2e-3;
  per_step.clear();
  for (int k = 0; k < 3; ++k) {
    const double s = timed(spans, "probe.system.dual", -1, [&] {
      system::DualSystem sys(dcfg);
      g_sink = g_sink + static_cast<double>(sys.run(1e-3).codes1.size());
    });
    per_step.push_back(s / rk4_steps(1e-3, dcfg.tanks.tank1));
  }
  report["system.dual_step_ns"] = 1e9 * median(per_step);

  // Batched envelope engine: one 64-lane chunk at Q = 40.
  system::ToleranceConfig tcfg;
  tcfg.nominal.tank = probe_tank();
  tcfg.nominal.regulation.tick_period = 0.25e-3;
  tcfg.samples = 64;
  tcfg.seed = 11;
  tcfg.workers = 1;
  auto& lane_steps = obs::MetricsRegistry::instance().counter("envelope.batched.lane_steps");
  per_step.clear();
  for (int k = 0; k < 3; ++k) {
    const std::uint64_t before = lane_steps.total();
    const double s = timed(spans, "probe.envelope.chunk", -1, [&] {
      g_sink = g_sink + static_cast<double>(system::run_tolerance_samples(tcfg, 0, 64).size());
    });
    const std::uint64_t steps = lane_steps.total() - before;
    if (steps > 0) per_step.push_back(s / static_cast<double>(steps));
  }
  report["system.envelope_lane_step_ns"] = 1e9 * median(per_step);
}

}  // namespace

void run_layer_probes(LayerReport& report, SpanLog* spans) {
  probe_numeric_and_spice(report, spans);
  probe_blocks(report, spans);
  probe_systems(report, spans);
}

}  // namespace perfbench
