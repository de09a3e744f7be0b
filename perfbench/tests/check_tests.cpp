// The benchmark's correctness checks must reject wrong results: each test
// feeds a check one plausible, correct input and one deliberately wrong
// one (a flipped I-V sign, an amplitude 20 % off, a mislabelled part...).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "checks.h"

namespace perfbench {
namespace {

using lcosc::tank::TankConfig;

TankConfig q40_tank() { return lcosc::tank::design_tank(4.0e6, 40.0, 3.3e-6); }

Failures run(auto&& check) {
  Failures out;
  check(out);
  return out;
}

TEST(TankPhysics, MatchesTheDesignTargets) {
  const TankConfig t = q40_tank();
  EXPECT_NEAR(resonance_hz(t), 4.0e6, 1.0);
  EXPECT_NEAR(quality_factor(t), 40.0, 1e-9);
  // Rp = Q w0 L for the series-to-parallel transform.
  EXPECT_NEAR(parallel_resistance(t), 40.0 * 2.0 * std::numbers::pi * 4.0e6 * 3.3e-6, 1e-6);
}

lcosc::system::SimulationResult regulated_run(double amplitude) {
  lcosc::system::SimulationResult sim;
  for (int i = 0; i < 100; ++i) sim.envelope.append(1e-4 * i, amplitude);
  sim.ticks.push_back({});
  return sim;
}

TEST(HealthyControl, RejectsFlagsAndAmplitudeOutsideTheWindow) {
  const Window w = regulation_window(2.7, 0.10);
  EXPECT_TRUE(run([&](Failures& o) { check_healthy_control(regulated_run(2.7), w, "c", o); })
                  .empty());
  // 20 % high.
  EXPECT_FALSE(run([&](Failures& o) {
                 check_healthy_control(regulated_run(2.7 * 1.2), w, "c", o);
               }).empty());
  auto flagged = regulated_run(2.7);
  flagged.ticks.back().faults.low_amplitude = true;
  EXPECT_FALSE(run([&](Failures& o) { check_healthy_control(flagged, w, "c", o); }).empty());
}

TEST(SafeState, RequiresMaximumCode) {
  EXPECT_TRUE(run([](Failures& o) { check_safe_state_code(true, 127, "r", o); }).empty());
  EXPECT_TRUE(run([](Failures& o) { check_safe_state_code(false, 40, "r", o); }).empty());
  EXPECT_FALSE(run([](Failures& o) { check_safe_state_code(true, 126, "r", o); }).empty());
}

TEST(Latency, MustLieInsideTheObservationWindow) {
  EXPECT_TRUE(run([](Failures& o) { check_latency(2e-3, 10e-3, "r", o); }).empty());
  EXPECT_TRUE(run([](Failures& o) { check_latency(std::nullopt, 10e-3, "r", o); }).empty());
  EXPECT_FALSE(run([](Failures& o) { check_latency(0.0, 10e-3, "r", o); }).empty());
  EXPECT_FALSE(run([](Failures& o) { check_latency(12e-3, 10e-3, "r", o); }).empty());
}

TEST(OpenCoil, MustBeFlagged) {
  lcosc::system::FmeaRow row;
  row.fault = lcosc::tank::TankFault::OpenCoil;
  EXPECT_FALSE(run([&](Failures& o) { check_open_coil(row, o); }).empty());
  row.detected = true;
  EXPECT_TRUE(run([&](Failures& o) { check_open_coil(row, o); }).empty());
}

TEST(GmCollapse, FollowsTheOscillationCondition) {
  lcosc::system::InternalFmeaRow row;
  row.fault = lcosc::faults::make_gm_collapse();
  const double collapsed = 0.05 * 9.0 * 1.1e-3;
  const TankConfig low_q = lcosc::tank::design_tank(4.0e6, 5.0, 3.3e-6);
  const TankConfig high_q = lcosc::tank::design_tank(4.0e6, 400.0, 3.3e-6);
  // Q = 5: Gm*Rp << 2, the oscillation must die and be flagged.
  EXPECT_FALSE(run([&](Failures& o) { check_gm_collapse(row, low_q, collapsed, o); }).empty());
  row.detected = true;
  row.observed.missing_oscillation = true;
  EXPECT_TRUE(run([&](Failures& o) { check_gm_collapse(row, low_q, collapsed, o); }).empty());
  // Q = 400: Gm*Rp > 2 at the maximum code; nothing is asserted.
  row = {};
  row.fault = lcosc::faults::make_gm_collapse();
  EXPECT_TRUE(run([&](Failures& o) { check_gm_collapse(row, high_q, collapsed, o); }).empty());
}

TEST(SameRows, DetectsAnyDifferingField) {
  lcosc::system::InternalFmeaRow a;
  a.fault = lcosc::faults::make_segment_dead(4);
  a.final_code = 43;
  a.detection_latency = 1e-3;
  std::vector<lcosc::system::InternalFmeaRow> ref = {a};
  EXPECT_TRUE(run([&](Failures& o) { check_same_rows(ref, ref, "s", o); }).empty());
  auto code = ref;
  code[0].final_code = 44;
  EXPECT_FALSE(run([&](Failures& o) { check_same_rows(ref, code, "s", o); }).empty());
  auto latency = ref;
  latency[0].detection_latency = 1.25e-3;
  EXPECT_FALSE(run([&](Failures& o) { check_same_rows(ref, latency, "s", o); }).empty());
  auto retried = ref;
  retried[0].status.retries = 1;
  EXPECT_FALSE(run([&](Failures& o) { check_same_rows(ref, retried, "s", o); }).empty());
  EXPECT_FALSE(run([&](Failures& o) { check_same_rows(ref, {}, "s", o); }).empty());
}

lcosc::system::ToleranceSample drawn_sample(const TankConfig& nominal) {
  lcosc::system::ToleranceSample s;
  s.tank = nominal;
  s.tank.inductance *= 1.07;
  s.tank.capacitance1 *= 0.95;
  s.tank.capacitance2 *= 1.02;
  s.tank.series_resistance *= 1.25;
  s.resonance_frequency = resonance_hz(s.tank);
  s.quality_factor = quality_factor(s.tank);
  return s;
}

TEST(ToleranceSample, RecomputesF0AndQAndBands) {
  const ToleranceBands bands{q40_tank(), 0.10, 0.10, 0.30};
  const auto good = drawn_sample(bands.nominal);
  EXPECT_TRUE(run([&](Failures& o) { check_tolerance_sample(good, bands, "s", o); }).empty());
  auto f0 = good;
  f0.resonance_frequency *= 1.001;
  EXPECT_FALSE(run([&](Failures& o) { check_tolerance_sample(f0, bands, "s", o); }).empty());
  auto q = good;
  q.quality_factor *= 0.8;
  EXPECT_FALSE(run([&](Failures& o) { check_tolerance_sample(q, bands, "s", o); }).empty());
  // A coil 12 % off nominal is outside the 10 % band, even with matching f0/Q.
  auto out_of_band = good;
  out_of_band.tank.inductance = bands.nominal.inductance * 1.12;
  out_of_band.resonance_frequency = resonance_hz(out_of_band.tank);
  out_of_band.quality_factor = quality_factor(out_of_band.tank);
  EXPECT_FALSE(
      run([&](Failures& o) { check_tolerance_sample(out_of_band, bands, "s", o); }).empty());
}

TEST(ToleranceYield, RequiresEverySampleInWindow) {
  lcosc::system::ToleranceReport report;
  report.samples.resize(4);
  for (auto& s : report.samples) s.in_window = true;
  EXPECT_TRUE(run([&](Failures& o) { check_full_yield(report, "y", o); }).empty());
  report.samples[2].in_window = false;
  EXPECT_FALSE(run([&](Failures& o) { check_full_yield(report, "y", o); }).empty());
  EXPECT_FALSE(run([&](Failures& o) { check_full_yield({}, "y", o); }).empty());
}

TEST(ToleranceSample, SameSampleComparesEveryResult) {
  const auto a = drawn_sample(q40_tank());
  auto b = a;
  EXPECT_TRUE(same_sample(a, b));
  b.settled_amplitude = a.settled_amplitude + 1e-12;
  EXPECT_FALSE(same_sample(a, b));
}

TEST(Angle, WrapsAndBounds) {
  const double deg = std::numbers::pi / 180.0;
  EXPECT_NEAR(wrap_angle(2.0 * std::numbers::pi + 0.1), 0.1, 1e-12);
  EXPECT_TRUE(run([&](Failures& o) { check_angle(179.9 * deg, -179.9 * deg, 0.5 * deg, "a", o); })
                  .empty());
  EXPECT_FALSE(run([&](Failures& o) { check_angle(31.0 * deg, 30.0 * deg, 0.5 * deg, "a", o); })
                   .empty());
  // Mirror image (sin channel sign flipped).
  EXPECT_FALSE(run([&](Failures& o) { check_angle(-30.0 * deg, 30.0 * deg, 0.5 * deg, "a", o); })
                   .empty());
}

TEST(Dual, Fig11SurvivesAndFig10aDragsDown) {
  const Window w = regulation_window(2.7, 0.10);
  EXPECT_TRUE(run([&](Failures& o) { check_dual_survives({2.78, 2.60}, w, o); }).empty());
  // Amplitude 20 % low after the supply loss.
  EXPECT_FALSE(run([&](Failures& o) { check_dual_survives({2.78, 2.78 * 0.8}, w, o); }).empty());
  EXPECT_TRUE(run([&](Failures& o) { check_dual_dragged_down({2.78, 1.6}, w, o); }).empty());
  EXPECT_FALSE(run([&](Failures& o) { check_dual_dragged_down({2.78, 2.7}, w, o); }).empty());
}

IvCurve odd_curve(const std::string& label, double scale) {
  IvCurve c;
  c.label = label;
  for (int i = 0; i <= 40; ++i) {
    const double v = -3.0 + 0.15 * i;
    c.vd.push_back(v);
    c.current.push_back(scale * std::sinh(2.0 * v));
    c.converged.push_back(true);
  }
  return c;
}

TEST(IvCurves, OddSymmetry) {
  const IvCurve good = odd_curve("c", 1e-4);
  EXPECT_TRUE(run([&](Failures& o) { check_odd(good, 1e-6, 1e-3, o); }).empty());
  // Flipped sign on the negative half makes the curve even.
  IvCurve flipped = good;
  for (std::size_t i = 0; i < flipped.vd.size(); ++i) {
    if (flipped.vd[i] < 0.0) flipped.current[i] = -flipped.current[i];
  }
  EXPECT_FALSE(run([&](Failures& o) { check_odd(flipped, 1e-6, 1e-3, o); }).empty());
  // A non-converged point is skipped, not compared.
  IvCurve gap = good;
  gap.converged[3] = false;
  gap.current[3] = 1.0;
  EXPECT_TRUE(run([&](Failures& o) { check_odd(gap, 1e-6, 1e-3, o); }).empty());
}

TEST(IvCurves, SameIvAcrossBuilds) {
  const IvCurve a = odd_curve("a", 1e-4);
  EXPECT_TRUE(run([&](Failures& o) { check_same_iv(a, a, o); }).empty());
  IvCurve off = a;
  off.current[10] *= 1.2;
  EXPECT_FALSE(run([&](Failures& o) { check_same_iv(a, off, o); }).empty());
  IvCurve unconverged = a;
  unconverged.converged[5] = false;
  EXPECT_FALSE(run([&](Failures& o) { check_same_iv(a, unconverged, o); }).empty());
}

TEST(IvCurves, Fig11LeaksLessThanFig10a) {
  const IvCurve fig11 = odd_curve("fig11", 1e-7);
  const IvCurve fig10a = odd_curve("fig10a", 1e-4);
  EXPECT_TRUE(run([&](Failures& o) { check_leakage_order(fig11, fig10a, 1.35, o); }).empty());
  EXPECT_FALSE(run([&](Failures& o) { check_leakage_order(fig10a, fig11, 1.35, o); }).empty());
}

TEST(PairTransient, AmplitudeAndFrequencyBands) {
  const TankConfig t = q40_tank();
  const double itail = 2e-3;
  const double theory = 4.0 / std::numbers::pi * itail / 2.0 * parallel_resistance(t);
  const PairTransient good{itail, theory * 0.999, resonance_hz(t) * 0.9995};
  EXPECT_TRUE(run([&](Failures& o) { check_pair_transient(good, t, 0.03, 0.005, o); }).empty());
  PairTransient amp = good;
  amp.amplitude = theory * 1.2;
  EXPECT_FALSE(run([&](Failures& o) { check_pair_transient(amp, t, 0.03, 0.005, o); }).empty());
  PairTransient freq = good;
  freq.frequency = resonance_hz(t) * 1.02;
  EXPECT_FALSE(run([&](Failures& o) { check_pair_transient(freq, t, 0.03, 0.005, o); }).empty());
}

}  // namespace
}  // namespace perfbench
