// Correctness checks of the benchmark workloads.  Each check compares a
// program output with physics, with a claim of the paper, or with a second
// construction of the same result -- never with a recorded earlier output.
// A check appends one line per violation to a Failures list, so a run can
// report every violation it saw; an empty list means the outputs passed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "system/fmea_campaign.h"
#include "system/internal_fmea.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"
#include "tank/rlc_tank.h"

namespace perfbench {

using Failures = std::vector<std::string>;

// --- tank physics, computed here from the components -----------------------

// Loop capacitance C1*C2/(C1+C2) seen by the coil.
[[nodiscard]] double series_capacitance(const lcosc::tank::TankConfig& tank);
// f0 = 1 / (2 pi sqrt(L Ceff)).
[[nodiscard]] double resonance_hz(const lcosc::tank::TankConfig& tank);
// Q = 2 pi f0 L / Rs.
[[nodiscard]] double quality_factor(const lcosc::tank::TankConfig& tank);
// Differential parallel loss resistance at resonance, Rp = L / (Ceff Rs).
[[nodiscard]] double parallel_resistance(const lcosc::tank::TankConfig& tank);
// RK4 steps of a cycle-accurate run of `duration` on this tank: the
// engines step 64 times per period of the healthy tank.
[[nodiscard]] double rk4_steps(double duration, const lcosc::tank::TankConfig& tank);

// Regulation window of paper Section 4: the target amplitude plus and minus
// half the window's total relative width.
struct Window {
  double low = 0.0;
  double high = 0.0;
};
[[nodiscard]] Window regulation_window(double target, double total_width);

// --- fault_campaign --------------------------------------------------------

// The healthy control flags nothing at any tick and its settled amplitude
// lies inside the regulation window.
void check_healthy_control(const lcosc::system::SimulationResult& sim, const Window& window,
                           const std::string& label, Failures& out);

// Paper Section 9: the safety reaction sets the driver to maximum output
// current, so every row that entered the safe state ends at code 127.
void check_safe_state_code(bool safe_state_entered, int final_code, const std::string& label,
                           Failures& out);

// A detection latency, when present, lies in (0, observe_time].
void check_latency(const std::optional<double>& latency, double observe_time,
                   const std::string& label, Failures& out);

// An open coil stops the oscillation, so some detector must fire.
void check_open_coil(const lcosc::system::FmeaRow& row, Failures& out);

// Gm collapse against the oscillation condition Gm * Rp > 2 (two
// cross-coupled stages present Gm/2 across the differential port).
// `max_collapsed_gm` is the collapsed transconductance at the largest
// stage count the code can select.  If even that cannot sustain the
// oscillation (Gm * Rp < 2) a detector must fire.  Above the condition
// the outcome depends on the code held when the fault hits, so the check
// asserts nothing there.
void check_gm_collapse(const lcosc::system::InternalFmeaRow& row,
                       const lcosc::tank::TankConfig& tank, double max_collapsed_gm,
                       Failures& out);

// Two constructions of the same internal FMEA row agree field by field.
[[nodiscard]] bool same_row(const lcosc::system::InternalFmeaRow& a,
                            const lcosc::system::InternalFmeaRow& b);
void check_same_rows(const std::vector<lcosc::system::InternalFmeaRow>& reference,
                     const std::vector<lcosc::system::InternalFmeaRow>& candidate,
                     const std::string& label, Failures& out);

// --- tolerance_yield -------------------------------------------------------

struct ToleranceBands {
  lcosc::tank::TankConfig nominal{};
  double inductance = 0.0;   // relative half-widths
  double capacitance = 0.0;
  double resistance = 0.0;
};

// The sample's drawn L, C1, C2 and Rs lie inside their bands, and its
// reported f0 and Q equal the values recomputed from those parts.
void check_tolerance_sample(const lcosc::system::ToleranceSample& sample,
                            const ToleranceBands& bands, const std::string& label,
                            Failures& out);

// Every sample regulated into its acceptance band (100 % yield).
void check_full_yield(const lcosc::system::ToleranceReport& report, const std::string& label,
                      Failures& out);

// Two constructions of the same Monte-Carlo sample agree field by field.
[[nodiscard]] bool same_sample(const lcosc::system::ToleranceSample& a,
                               const lcosc::system::ToleranceSample& b);

// --- sensor_application ----------------------------------------------------

// Angle difference wrapped into (-pi, pi].
[[nodiscard]] double wrap_angle(double radians);

// The estimated rotor angle is within `bound` of the drawn angle.
void check_angle(double estimated, double drawn, double bound, const std::string& label,
                 Failures& out);

void check_in_window(double amplitude, const Window& window, const std::string& label,
                     Failures& out);

// Live-system amplitude of the dual system before and after chip 2 loses
// its supply.
struct DualOutcome {
  double live_before = 0.0;
  double live_after = 0.0;
};

// Fig. 11 dead chip (paper Section 8): the live system keeps regulating,
// so its amplitude stays inside the window and changes by less than the
// window's width.
void check_dual_survives(const DualOutcome& outcome, const Window& window, Failures& out);

// Fig. 10a dead chip: its junction paths clamp the coupled swing and drag
// the live amplitude below the window.
void check_dual_dragged_down(const DualOutcome& outcome, const Window& window, Failures& out);

// --- circuit_sweeps --------------------------------------------------------

// A DC I-V characteristic: pin current into LC1 against V(LC1)-V(LC2).
struct IvCurve {
  std::string label;
  std::vector<double> vd;
  std::vector<double> current;
  std::vector<bool> converged;

  [[nodiscard]] std::size_t failed_points() const;
  // Largest |I| over the converged points with |vd| <= limit.
  [[nodiscard]] double max_abs_current_within(double limit) const;
};

// The unsupplied testbenches are mirror-symmetric in LC1/LC2, so on a grid
// symmetric about 0 V the characteristic is odd: I(-Vd) = -I(Vd) within
// abs_floor + rel * |I| wherever both points converged.  The absolute
// floor covers the one-way continuation near the bulk-switch turn-on.
void check_odd(const IvCurve& curve, double abs_floor, double rel, Failures& out);

// Two builds of one topology (text netlist and C++ testbench) converge at
// the same points and give the same currents there.
void check_same_iv(const IvCurve& a, const IvCurve& b, Failures& out);

// Fig. 17: inside the +-limit operating range the Fig. 11 stage leaks
// less than the standard CMOS stage of Fig. 10a.
void check_leakage_order(const IvCurve& fig11, const IvCurve& fig10a, double limit,
                         Failures& out);

// Cross-coupled pair transient on one tank.
struct PairTransient {
  double tail_current = 0.0;
  double amplitude = 0.0;  // differential peak
  double frequency = 0.0;
};

// Amplitude within amplitude_band (relative) of the square-wave
// describing-function law (4/pi)(I/2)Rp, and frequency within
// frequency_band of 1/(2 pi sqrt(L Ceff)).
void check_pair_transient(const PairTransient& run, const lcosc::tank::TankConfig& tank,
                          double amplitude_band, double frequency_band, Failures& out);

}  // namespace perfbench
