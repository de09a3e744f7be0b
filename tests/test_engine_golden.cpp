// Golden traces of the three cycle-accurate engines (OscillatorSystem,
// the Fig. 9 DualSystem and MagneticSensorSystem).  Every result bit the
// integration produces -- envelopes, tick codes, final codes and the last
// recorded tank state -- is rendered in hexfloat and compared byte for
// byte with tests/data/engine_golden_trace.txt.  A refactor of the
// integration loops must keep this file unchanged; regenerate it
// deliberately with LCOSC_REGEN_GOLDEN=1 only after an intentional
// numeric change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/atomic_file.h"
#include "common/units.h"
#include "faults/internal_fault.h"
#include "system/dual_system.h"
#include "system/magnetic_sensor.h"
#include "system/oscillator_system.h"

#ifndef LCOSC_TEST_DATA_DIR
#define LCOSC_TEST_DATA_DIR "tests/data"
#endif

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

std::string golden_path() {
  return LCOSC_TEST_DATA_DIR "/engine_golden_trace.txt";
}

// Appends printf-formatted text to `out`.
template <typename... Args>
void emit(std::string& out, const char* fmt, Args... args) {
  char line[256];
  std::snprintf(line, sizeof(line), fmt, args...);
  out += line;
}

// FNV-1a over the bit patterns of every (time, value) sample: a trace
// too long to store verbatim is pinned by its length, this hash and its
// last sample.
std::uint64_t trace_hash(const Trace& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    mix(trace.time(i));
    mix(trace.value(i));
  }
  return h;
}

void render_trace(std::string& out, const char* label, const Trace& trace) {
  emit(out, "%s size %zu hash %016llx\n", label, trace.size(),
       static_cast<unsigned long long>(trace_hash(trace)));
  if (!trace.empty()) {
    emit(out, "%s last %a %a\n", label, trace.end_time(), trace.value(trace.size() - 1));
  }
}

OscillatorSystemConfig oscillator_config() {
  OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.regulation.tick_period = 0.25e-3;
  cfg.safety.low_amplitude.persistence = 2e-3;
  // One pin-voltage sample per period: the last one stands for the final
  // tank state.
  cfg.waveform_decimation = 64;
  return cfg;
}

void render_simulation(std::string& out, const char* name, const SimulationResult& r) {
  emit(out, "case %s\n", name);
  render_trace(out, "envelope", r.envelope);
  emit(out, "settled %a\n", r.settled_amplitude());
  for (const TickRecord& t : r.ticks) {
    emit(out, "tick %a code %d vdc1 %a window %d faults %d%d%d%d isup %a\n", t.time, t.code,
         t.vdc1, static_cast<int>(t.window), t.faults.missing_oscillation,
         t.faults.low_amplitude, t.faults.asymmetry, t.faults.frequency_out_of_band,
         t.supply_current);
  }
  render_trace(out, "v_diff", r.differential);
  render_trace(out, "v_lc1", r.v_lc1);
  render_trace(out, "v_lc2", r.v_lc2);
  emit(out, "final_code %d mode %d faults %d%d%d%d\n", r.final_code,
       static_cast<int>(r.final_mode), r.final_faults.missing_oscillation,
       r.final_faults.low_amplitude, r.final_faults.asymmetry,
       r.final_faults.frequency_out_of_band);
}

// The reference runs: any change here invalidates the golden file.
std::string render_all() {
  std::string out;
  out += "# cycle-accurate engine golden trace (hexfloat, exact bits)\n";
  {
    OscillatorSystem sys(oscillator_config());
    render_simulation(out, "oscillator_healthy", sys.run(5e-3));
  }
  {
    OscillatorSystem sys(oscillator_config());
    sys.schedule_fault(tank::TankFault::CoilShortToGround, 3e-3);
    render_simulation(out, "oscillator_coil_short_to_ground", sys.run(5e-3));
  }
  {
    OscillatorSystemConfig cfg = oscillator_config();
    cfg.driver_bandwidth = 40e6;
    OscillatorSystem sys(cfg);
    render_simulation(out, "oscillator_slow_driver", sys.run(4e-3));
  }
  {
    OscillatorSystem base(oscillator_config());
    RunSession prefix(base, 5e-3);
    prefix.advance_until(3e-3);
    RunSession variant(prefix);
    variant.inject_internal_fault(faults::make_gm_collapse());
    render_simulation(out, "oscillator_session_gm_collapse", variant.finish());
  }
  {
    DualSystemConfig cfg;
    cfg.tanks.tank1 = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
    cfg.tanks.tank2 = cfg.tanks.tank1;
    cfg.tanks.coupling = 0.15;
    cfg.regulation.tick_period = 0.2e-3;
    cfg.waveform_decimation = 64;
    DualSystem sys(cfg);
    // Diode-clamp-like dead-chip characteristic.
    sys.schedule_supply_loss(
        3e-3, PwlTable({{-3.0, -45e-3}, {-0.7, -0.1e-3}, {0.0, 0.0}, {0.7, 0.1e-3},
                        {3.0, 45e-3}}));
    const DualRunResult r = sys.run(5e-3);
    emit(out, "case dual_supply_loss\n");
    render_trace(out, "envelope1", r.envelope1);
    render_trace(out, "envelope2", r.envelope2);
    render_trace(out, "v_diff1", r.differential1);
    render_trace(out, "v_diff2", r.differential2);
    for (std::size_t i = 0; i < r.codes1.size(); ++i) {
      emit(out, "tick %zu code1 %d code2 %d\n", i, r.codes1[i],
           i < r.codes2.size() ? r.codes2[i] : -2);
    }
  }
  {
    MagneticSensorConfig cfg;
    cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
    cfg.regulation.tick_period = 0.25e-3;
    cfg.rotor_angle = 0.7;
    MagneticSensorSystem sys(cfg);
    const MagneticSensorResult r = sys.run(4e-3);
    emit(out, "case magnetic_sensor_0.7rad\n");
    render_trace(out, "envelope", r.envelope);
    emit(out, "settled %a final_code %d\n", r.settled_amplitude, r.final_code);
    emit(out, "sin %a cos %a angle %a error %a\n", r.sin_channel, r.cos_channel,
         r.estimated_angle, r.angle_error);
  }
  return out;
}

TEST(EngineGolden, CycleAccurateEnginesMatchGoldenTrace) {
  const std::string rendered = render_all();

  if (std::getenv("LCOSC_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(lcosc::write_file_atomic(golden_path(), rendered))
        << "cannot write " << golden_path();
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path();
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  if (rendered != golden) {
    std::istringstream a(golden), b(rendered);
    std::string la, lb;
    std::size_t line_no = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
      ++line_no;
      ASSERT_EQ(la, lb) << "first divergence at golden line " << line_no;
    }
    FAIL() << "golden and rendered traces differ in length";
  }
}

}  // namespace
}  // namespace lcosc::system
