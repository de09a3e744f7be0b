// Physically modeled 3-coil sensor (inductance-matrix magnetics).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "common/constants.h"
#include "common/error.h"
#include "common/units.h"
#include "system/magnetic_sensor.h"

namespace {
// Every global operator new in this binary is counted, so a test can
// check that an engine's integration loop does not allocate per step.
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() applied to operator new's
// result at each call site and report a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

MagneticSensorConfig magnetic_config(double angle) {
  MagneticSensorConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.regulation.tick_period = 0.25e-3;
  cfg.rotor_angle = angle;
  return cfg;
}

TEST(MagneticSensor, RegulatesAndRecoversAngle) {
  MagneticSensorSystem sys(magnetic_config(0.7));
  const MagneticSensorResult r = sys.run(15e-3);
  EXPECT_NEAR(r.settled_amplitude, 2.7, 2.7 * 0.08);
  EXPECT_NEAR(r.angle_error, 0.0, 0.01);
}

TEST(MagneticSensor, RunAllocationsDoNotGrowWithDuration) {
  // The RK4 step builds its coil voltages and current derivatives in
  // fixed-size arrays, so doubling the run (256,000 more steps) adds no
  // per-step allocations -- only one geometric regrowth of the envelope
  // trace's time and value vectors.
  auto allocations = [](double duration) {
    MagneticSensorSystem sys(magnetic_config(0.7));
    const std::size_t before = g_allocations.load();
    (void)sys.run(duration);
    return g_allocations.load() - before;
  };
  (void)allocations(1e-3);  // first run pays one-time static initialisation
  const std::size_t one_ms = allocations(1e-3);
  const std::size_t two_ms = allocations(2e-3);
  EXPECT_LE(two_ms, one_ms + 2);
}

class MagneticAngles : public ::testing::TestWithParam<double> {};

TEST_P(MagneticAngles, FullCircle) {
  MagneticSensorSystem sys(magnetic_config(GetParam()));
  const MagneticSensorResult r = sys.run(12e-3);
  EXPECT_NEAR(r.angle_error, 0.0, 0.01) << "theta = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Quadrants, MagneticAngles,
                         ::testing::Values(-2.8, -1.6, -0.5, 0.0, 0.9, 1.57, 2.4, 3.1));

TEST(MagneticSensor, ChannelAmplitudeMatchesTheory) {
  // Demodulated channel ~ (2/pi) * k * (A/2-ish...) -- more precisely the
  // synchronous average of the in-phase induced sense voltage:
  // EMF_peak = k * A * sqrt(L_rx / L_exc), attenuated by the load divider
  // R_load / (R_coil + R_load) and the small coil reactance phase.
  MagneticSensorConfig cfg = magnetic_config(kPi / 2.0);  // all into sin
  MagneticSensorSystem sys(cfg);
  const MagneticSensorResult r = sys.run(15e-3);
  const double emf_peak = cfg.peak_coupling * r.settled_amplitude *
                          std::sqrt(cfg.receive_inductance / cfg.tank.inductance);
  const double divider =
      cfg.load_resistance / (cfg.load_resistance + cfg.receive_resistance);
  const double expected = (2.0 / kPi) * emf_peak * divider;
  EXPECT_NEAR(r.sin_channel, expected, expected * 0.10);
  EXPECT_NEAR(r.cos_channel, 0.0, expected * 0.05);
}

TEST(MagneticSensor, CouplingModulatesBothChannels) {
  // 45 degrees: both channels equal.
  MagneticSensorSystem sys(magnetic_config(kPi / 4.0));
  const MagneticSensorResult r = sys.run(12e-3);
  EXPECT_NEAR(r.sin_channel, r.cos_channel, std::abs(r.sin_channel) * 0.05);
}

TEST(MagneticSensor, StiffLoadRejected) {
  MagneticSensorConfig cfg = magnetic_config(0.0);
  cfg.load_resistance = 100e3;  // pole far beyond the step
  EXPECT_THROW(MagneticSensorSystem{cfg}, ConfigError);
}

TEST(MagneticSensor, MagneticsArePhysical) {
  MagneticSensorSystem sys(magnetic_config(1.0));
  EXPECT_EQ(sys.magnetics().coil_count(), 3u);
  EXPECT_GT(sys.magnetics().stored_energy({1.0, 0.1, 0.1}), 0.0);
}

}  // namespace
}  // namespace lcosc::system
