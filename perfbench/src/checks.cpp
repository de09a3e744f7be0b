#include "checks.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

namespace perfbench {

using lcosc::system::FmeaRow;
using lcosc::system::InternalFmeaRow;
using lcosc::system::ToleranceReport;
using lcosc::system::ToleranceSample;
using lcosc::tank::TankConfig;

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
// Largest amplitude code: the safety reaction's maximum output current.
constexpr int kMaxCode = 127;

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(6);
  s << v;
  return s.str();
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

bool in_band(double value, double nominal, double rel) {
  // Inclusive band, with a few ulps of slack for the multiply that drew it.
  const double slack = 1e-12 * std::abs(nominal);
  return value >= nominal * (1.0 - rel) - slack && value <= nominal * (1.0 + rel) + slack;
}

}  // namespace

double series_capacitance(const TankConfig& tank) {
  return tank.capacitance1 * tank.capacitance2 / (tank.capacitance1 + tank.capacitance2);
}

double resonance_hz(const TankConfig& tank) {
  return 1.0 / (kTwoPi * std::sqrt(tank.inductance * series_capacitance(tank)));
}

double quality_factor(const TankConfig& tank) {
  return kTwoPi * resonance_hz(tank) * tank.inductance / tank.series_resistance;
}

double parallel_resistance(const TankConfig& tank) {
  return tank.inductance / (series_capacitance(tank) * tank.series_resistance);
}

double rk4_steps(double duration, const TankConfig& tank) {
  return std::ceil(duration * resonance_hz(tank) * 64.0);
}

Window regulation_window(double target, double total_width) {
  return {target * (1.0 - 0.5 * total_width), target * (1.0 + 0.5 * total_width)};
}

// --- fault_campaign --------------------------------------------------------

void check_healthy_control(const lcosc::system::SimulationResult& sim, const Window& window,
                           const std::string& label, Failures& out) {
  if (sim.final_faults.any()) out.push_back(label + ": healthy control latched a fault flag");
  for (const auto& tick : sim.ticks) {
    if (tick.faults.any()) {
      out.push_back(label + ": healthy control flagged a fault at t=" + fmt(tick.time));
      break;
    }
  }
  if (sim.envelope.empty()) {
    out.push_back(label + ": healthy control recorded no envelope");
    return;
  }
  check_in_window(sim.settled_amplitude(), window, label + " settled amplitude", out);
}

void check_safe_state_code(bool safe_state_entered, int final_code, const std::string& label,
                           Failures& out) {
  if (safe_state_entered && final_code != kMaxCode) {
    out.push_back(label + ": safe state entered but final code " + std::to_string(final_code) +
                  " != 127");
  }
}

void check_latency(const std::optional<double>& latency, double observe_time,
                   const std::string& label, Failures& out) {
  if (latency.has_value() && !(*latency > 0.0 && *latency <= observe_time)) {
    out.push_back(label + ": detection latency " + fmt(*latency) + " s outside (0, " +
                  fmt(observe_time) + "]");
  }
}

void check_open_coil(const FmeaRow& row, Failures& out) {
  if (!row.detected) out.push_back("open coil: no detector fired");
}

void check_gm_collapse(const InternalFmeaRow& row, const TankConfig& tank,
                       double max_collapsed_gm, Failures& out) {
  const double loop_gain = max_collapsed_gm * parallel_resistance(tank);
  const std::string label = "gm collapse at Q=" + fmt(quality_factor(tank)) +
                            " (Gm*Rp=" + fmt(loop_gain) + ")";
  if (loop_gain < 2.0 && !row.detected) {
    out.push_back(label + ": oscillation cannot be sustained but no detector fired");
  }
}

bool same_row(const InternalFmeaRow& a, const InternalFmeaRow& b) {
  return a.fault == b.fault && a.expected == b.expected && a.observed == b.observed &&
         a.detected == b.detected && a.expected_channel_hit == b.expected_channel_hit &&
         a.safe_state_entered == b.safe_state_entered &&
         a.detection_latency == b.detection_latency && a.final_code == b.final_code &&
         a.status == b.status;
}

void check_same_rows(const std::vector<InternalFmeaRow>& reference,
                     const std::vector<InternalFmeaRow>& candidate, const std::string& label,
                     Failures& out) {
  if (reference.size() != candidate.size()) {
    out.push_back(label + ": " + std::to_string(candidate.size()) + " rows, expected " +
                  std::to_string(reference.size()));
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!same_row(reference[i], candidate[i])) {
      out.push_back(label + ": row " + lcosc::faults::to_string(reference[i].fault) +
                    " differs between the two constructions");
    }
  }
}

// --- tolerance_yield -------------------------------------------------------

void check_tolerance_sample(const ToleranceSample& sample, const ToleranceBands& bands,
                            const std::string& label, Failures& out) {
  const TankConfig& t = sample.tank;
  const TankConfig& n = bands.nominal;
  if (!in_band(t.inductance, n.inductance, bands.inductance) ||
      !in_band(t.capacitance1, n.capacitance1, bands.capacitance) ||
      !in_band(t.capacitance2, n.capacitance2, bands.capacitance) ||
      !in_band(t.series_resistance, n.series_resistance, bands.resistance)) {
    out.push_back(label + ": drawn part outside its tolerance band");
  }
  if (!close_rel(sample.resonance_frequency, resonance_hz(t), 1e-9)) {
    out.push_back(label + ": reported f0 " + fmt(sample.resonance_frequency) +
                  " Hz != recomputed " + fmt(resonance_hz(t)));
  }
  if (!close_rel(sample.quality_factor, quality_factor(t), 1e-9)) {
    out.push_back(label + ": reported Q " + fmt(sample.quality_factor) + " != recomputed " +
                  fmt(quality_factor(t)));
  }
}

void check_full_yield(const ToleranceReport& report, const std::string& label,
                      Failures& out) {
  if (report.samples.empty() || report.yield() != 1.0) {
    out.push_back(label + ": yield " + fmt(report.yield()) + ", expected 1");
  }
}

bool same_sample(const ToleranceSample& a, const ToleranceSample& b) {
  return a.tank.inductance == b.tank.inductance && a.tank.capacitance1 == b.tank.capacitance1 &&
         a.tank.capacitance2 == b.tank.capacitance2 &&
         a.tank.series_resistance == b.tank.series_resistance &&
         a.resonance_frequency == b.resonance_frequency &&
         a.quality_factor == b.quality_factor && a.settled_code == b.settled_code &&
         a.settled_amplitude == b.settled_amplitude && a.supply_current == b.supply_current &&
         a.in_window == b.in_window && a.status == b.status;
}

// --- sensor_application ----------------------------------------------------

double wrap_angle(double radians) {
  double w = std::remainder(radians, kTwoPi);
  if (w <= -std::numbers::pi) w += kTwoPi;
  return w;
}

void check_angle(double estimated, double drawn, double bound, const std::string& label,
                 Failures& out) {
  const double error = wrap_angle(estimated - drawn);
  if (!(std::abs(error) <= bound)) {
    out.push_back(label + ": angle error " + fmt(error * 180.0 / std::numbers::pi) +
                  " deg exceeds " + fmt(bound * 180.0 / std::numbers::pi) + " deg");
  }
}

void check_in_window(double amplitude, const Window& window, const std::string& label,
                     Failures& out) {
  if (!(amplitude >= window.low && amplitude <= window.high)) {
    out.push_back(label + ": amplitude " + fmt(amplitude) + " V outside the window [" +
                  fmt(window.low) + ", " + fmt(window.high) + "] V");
  }
}

void check_dual_survives(const DualOutcome& outcome, const Window& window, Failures& out) {
  check_in_window(outcome.live_after, window, "dual fig11: live system after supply loss", out);
  if (!(std::abs(outcome.live_after - outcome.live_before) <= window.high - window.low)) {
    out.push_back("dual fig11: live amplitude moved " +
                  fmt(outcome.live_after - outcome.live_before) +
                  " V, more than the window width");
  }
}

void check_dual_dragged_down(const DualOutcome& outcome, const Window& window,
                             Failures& out) {
  if (!(outcome.live_after < window.low)) {
    out.push_back("dual fig10a: live amplitude " + fmt(outcome.live_after) +
                  " V not dragged below the window");
  }
}

// --- circuit_sweeps --------------------------------------------------------

std::size_t IvCurve::failed_points() const {
  return static_cast<std::size_t>(std::count(converged.begin(), converged.end(), false));
}

double IvCurve::max_abs_current_within(double limit) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < vd.size(); ++i) {
    if (converged[i] && std::abs(vd[i]) <= limit) worst = std::max(worst, std::abs(current[i]));
  }
  return worst;
}

void check_odd(const IvCurve& curve, double abs_floor, double rel, Failures& out) {
  const std::size_t n = curve.vd.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    const std::size_t j = n - 1 - i;
    if (std::abs(curve.vd[i] + curve.vd[j]) > 1e-9) {
      out.push_back(curve.label + ": grid not symmetric about 0 V");
      return;
    }
    if (!curve.converged[i] || !curve.converged[j]) continue;
    const double a = curve.current[i];
    const double b = curve.current[j];
    if (std::abs(a + b) > abs_floor + rel * std::max(std::abs(a), std::abs(b))) {
      out.push_back(curve.label + ": I(" + fmt(curve.vd[i]) + ")=" + fmt(a) + " A but I(" +
                    fmt(curve.vd[j]) + ")=" + fmt(b) + " A, not odd");
    }
  }
}

void check_same_iv(const IvCurve& a, const IvCurve& b, Failures& out) {
  const std::string label = a.label + " vs " + b.label;
  if (a.vd != b.vd) {
    out.push_back(label + ": different grids");
    return;
  }
  for (std::size_t i = 0; i < a.vd.size(); ++i) {
    if (a.converged[i] != b.converged[i]) {
      out.push_back(label + ": convergence differs at " + fmt(a.vd[i]) + " V");
    } else if (a.converged[i] &&
               std::abs(a.current[i] - b.current[i]) >
                   1e-12 + 1e-6 * std::max(std::abs(a.current[i]), std::abs(b.current[i]))) {
      out.push_back(label + ": I(" + fmt(a.vd[i]) + ") " + fmt(a.current[i]) + " A vs " +
                    fmt(b.current[i]) + " A");
    }
  }
}

void check_leakage_order(const IvCurve& fig11, const IvCurve& fig10a, double limit,
                         Failures& out) {
  const double i11 = fig11.max_abs_current_within(limit);
  const double i10a = fig10a.max_abs_current_within(limit);
  if (!(i11 < i10a)) {
    out.push_back(fig11.label + ": leaks " + fmt(i11) + " A within +-" + fmt(limit) +
                  " V, not less than " + fig10a.label + " (" + fmt(i10a) + " A)");
  }
}

void check_pair_transient(const PairTransient& run, const TankConfig& tank,
                          double amplitude_band, double frequency_band, Failures& out) {
  const std::string label = "pair transient I=" + fmt(run.tail_current) + " A";
  const double theory = 4.0 / std::numbers::pi * (run.tail_current / 2.0) *
                        parallel_resistance(tank);
  if (!(std::abs(run.amplitude - theory) <= amplitude_band * theory)) {
    out.push_back(label + ": amplitude " + fmt(run.amplitude) + " V vs (4/pi)(I/2)Rp = " +
                  fmt(theory) + " V");
  }
  const double f0 = resonance_hz(tank);
  if (!(std::abs(run.frequency - f0) <= frequency_band * f0)) {
    out.push_back(label + ": frequency " + fmt(run.frequency) + " Hz vs f0 = " + fmt(f0) +
                  " Hz");
  }
}

}  // namespace perfbench
