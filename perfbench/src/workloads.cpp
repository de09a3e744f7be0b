#include "workloads.h"

#include <cmath>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "common/units.h"
#include "driver/output_stage.h"
#include "obs/metrics.h"
#include "spice/netlist_parser.h"
#include "spice/sweep.h"
#include "spice/transient_solver.h"
#include "system/dual_system.h"
#include "system/envelope_simulator.h"
#include "system/fmea_campaign.h"
#include "system/internal_fmea.h"
#include "system/magnetic_sensor.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"
#include "waveform/measurements.h"

namespace perfbench {

using namespace lcosc;
using namespace lcosc::literals;

namespace {

// SplitMix64: the benchmark's own input generator, so its inputs do not
// move when the library's random streams change.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Every workload's tanks: 4 MHz with the 3.3 uH coil of the paper's benches.
tank::TankConfig tank_at(double q) { return tank::design_tank(4.0_MHz, q, 3.3_uH); }

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// The code the regulation loop settles at on a plain tank, found the way
// an NVM preset is calibrated: a start-up from the power-on code, run on
// the envelope engine until the loop has walked to its settled code.
// Presetting it lets a cycle-accurate run settle within a few ticks
// instead of walking down from code 105 one tick at a time.
int calibrated_code(const tank::TankConfig& tank, const regulation::RegulationConfig& regulation) {
  system::EnvelopeSimConfig envelope;
  envelope.tank = tank;
  envelope.regulation = regulation;
  envelope.regulation.nvm_code = -1;
  return system::EnvelopeSimulator(envelope).run(40e-3).final_code;
}

Window default_window() {
  const regulation::AmplitudeDetectorConfig detector{};
  return regulation_window(detector.target_amplitude, detector.window_width);
}

// --- fault_campaign --------------------------------------------------------
//
// External and internal FMEA on OscillatorSystem at Q = 5, 40 and 400.
// The full lists at all three Q values (51 cases) take about a minute on
// one core, so each fault runs at one Q: every external fault and every
// internal fault kind appears, each Q gets a healthy control, shorted
// turns run at Q = 5, where the case diverges and is retried, and gm
// collapse runs at Q = 5 and 40, where the oscillation condition fails.
class FaultCampaign final : public Workload {
 public:
  FaultCampaign(std::uint64_t seed, SpanLog* spans) : seed_(seed), spans_(spans) {}

  void setup() override {
    using tank::TankFault;
    using faults::InternalFaultKind;
    const auto internal = [](InternalFaultKind kind) { return faults::make_fault(kind); };
    struct Plan {
      double q;
      std::vector<TankFault> external;
      std::vector<faults::InternalFault> internal;
    };
    const std::vector<Plan> plans = {
        {5.0,
         {TankFault::ShortedTurns, TankFault::IncreasedResistance, TankFault::MissingCosc2},
         {faults::make_line_stuck(faults::DacBus::OscF, 3, true),
          internal(InternalFaultKind::WindowStuckLow), faults::make_gm_collapse()}},
        {40.0,
         {TankFault::OpenCoil, TankFault::CoilShortToGround, TankFault::DegradedCosc1},
         {faults::make_segment_dead(4), internal(InternalFaultKind::RectifierDead),
          faults::make_gm_collapse()}},
        {400.0,
         {TankFault::CoilShortToSupply, TankFault::MissingCosc1},
         {internal(InternalFaultKind::WindowStuckHigh),
          internal(InternalFaultKind::WatchdogDead), internal(InternalFaultKind::FsmFrozen)}},
    };
    for (const Plan& plan : plans) {
      Block b;
      b.q = plan.q;
      // bench_fmea_coverage's configuration and severities, plus the NVM
      // preset of paper Section 4 so the loop has settled when the fault
      // is injected at 6 ms.
      b.external.system.tank = tank_at(plan.q);
      b.external.system.regulation.tick_period = 0.25e-3;
      b.external.system.regulation.nvm_code =
          calibrated_code(b.external.system.tank, b.external.system.regulation);
      b.external.system.waveform_decimation = 0;
      b.external.severity.resistance_factor = 30.0;
      b.external.severity.shorted_turn_fraction = 0.9;
      b.external.workers = 1;
      b.external_faults = plan.external;
      // bench_fault_coverage's timing.
      b.internal.system = b.external.system;
      b.internal.settle_time = 6e-3;
      b.internal.observe_time = 12e-3;
      b.internal.faults = plan.internal;
      b.internal.workers = 1;
      blocks_.push_back(std::move(b));
    }
  }

  void warm_up() override {
    system::OscillatorSystem sys(blocks_[1].external.system);
    (void)sys.run(1e-3);
  }

  RoundTally round(std::size_t index) override {
    const int r = static_cast<int>(index);
    RoundTally tally;
    external_ms_.clear();
    internal_ms_.clear();
    for (Block& b : blocks_) {
      const std::string q = "Q=" + std::to_string(static_cast<int>(b.q));
      const double duration = b.external.settle_time + b.external.observe_time;
      pin_next_cpu();
      timed(spans_, "system.run control " + q, r, [&] {
        system::OscillatorSystem sys(b.external.system);
        b.control = sys.run(duration);
      });
      b.external_rows.clear();
      for (const tank::TankFault fault : b.external_faults) {
        pin_next_cpu();
        const double s = timed(spans_, "campaign.fmea_case " + q, r, [&] {
          b.external_rows.push_back(system::run_fmea_case(b.external, fault));
        });
        external_ms_.push_back(s * 1e3);
      }
      pin_next_cpu();
      const double s = timed(spans_, "campaign.internal_fmea " + q, r, [&] {
        b.internal_report = system::run_internal_fmea_campaign(b.internal);
      });
      internal_ms_.push_back(s * 1e3 / static_cast<double>(b.internal.faults.size()));

      tally.attempted += 1 + b.external_rows.size() + b.internal_report.rows.size();
      for (const auto& row : b.external_rows) tally.failed += row.status.completed() ? 0 : 1;
      tally.failed += b.internal_report.error_count();
    }
    return tally;
  }

  void verify_round(Failures& out) override {
    const Window window = default_window();
    for (const Block& b : blocks_) {
      const std::string q = "Q=" + std::to_string(static_cast<int>(b.q));
      check_healthy_control(b.control, window, "control " + q, out);
      for (const auto& row : b.external_rows) {
        const std::string label = tank::to_string(row.fault) + " " + q;
        check_safe_state_code(row.safe_state_entered, row.final_code, label, out);
        check_latency(row.detection_latency, b.external.observe_time, label, out);
        if (row.fault == tank::TankFault::OpenCoil) check_open_coil(row, out);
      }
      // Table 1 enables at most 9 parallel Gm stages.
      const double max_gm = 9.0 * b.internal.system.driver.gm_per_stage;
      for (const auto& row : b.internal_report.rows) {
        const std::string label = faults::to_string(row.fault) + " " + q;
        check_safe_state_code(row.safe_state_entered, row.final_code, label, out);
        check_latency(row.detection_latency, b.internal.observe_time, label, out);
        if (row.fault.kind == faults::InternalFaultKind::GmCollapse) {
          check_gm_collapse(row, b.internal.system.tank, row.fault.gm_factor * max_gm, out);
        }
      }
    }
  }

  void verify_final(Failures& out) override {
    // A seed-chosen pair of internal cases re-run through the shared
    // settle-prefix span path must equal the per-case campaign rows.
    InputRng rng(seed_ ^ 0x5a17);
    const Block& b = blocks_[rng.next() % blocks_.size()];
    const std::size_t first = rng.next() % (b.internal.faults.size() - 1);
    std::vector<system::InternalFmeaRow> span;
    const double s = timed(spans_, "campaign.internal_span", -1, [&] {
      span = system::run_internal_fmea_cases(b.internal, first, 2);
    });
    span_ms_per_case_ = s * 1e3 / 2.0;
    const std::vector<system::InternalFmeaRow> reference(
        b.internal_report.rows.begin() + static_cast<std::ptrdiff_t>(first),
        b.internal_report.rows.begin() + static_cast<std::ptrdiff_t>(first + 2));
    check_same_rows(reference, span, "internal span rows", out);
  }

  void report_layers(LayerReport& report, double round_s) override {
    report["campaign.fmea_case_ms"] = median(external_ms_);
    report["campaign.fmea_case_ms_p90"] = quantile(external_ms_, 0.9);
    report["campaign.internal_case_ms"] = median(internal_ms_);
    report["campaign.internal_span_ms_per_case"] = span_ms_per_case_;
    const double steps = report["system.steps"];
    report["reconcile.explained_share"] =
        steps * report["system.step_ns"] * 1e-9 / round_s;
  }

  void overhead_unit() override {
    system::OscillatorSystem sys(blocks_[1].external.system);
    (void)sys.run(blocks_[1].external.settle_time + blocks_[1].external.observe_time);
  }

 private:
  struct Block {
    double q = 0.0;
    system::FmeaCampaignConfig external;
    std::vector<tank::TankFault> external_faults;
    system::InternalFmeaConfig internal;
    system::SimulationResult control;
    std::vector<system::FmeaRow> external_rows;
    system::InternalFmeaReport internal_report;
  };

  std::uint64_t seed_;
  SpanLog* spans_;
  std::vector<Block> blocks_;
  std::vector<double> external_ms_;
  std::vector<double> internal_ms_;
  double span_ms_per_case_ = 0.0;
};

// --- tolerance_yield -------------------------------------------------------
//
// Monte-Carlo tolerance analysis on the batched envelope engine: one
// default 64-lane chunk per nominal Q, realistic spread (10 % L/C, 30 %
// Rs) with DAC mismatch, samples drawn from the command-line seed.
class ToleranceYield final : public Workload {
 public:
  ToleranceYield(std::uint64_t seed, SpanLog* spans) : seed_(seed), spans_(spans) {}

  void setup() override {
    InputRng rng(seed_);
    for (const double q : {5.0, 40.0, 400.0}) {
      Block b;
      b.q = q;
      b.config.nominal.tank = tank_at(q);
      b.config.nominal.regulation.tick_period = 0.25e-3;
      b.config.inductance_tolerance = 0.10;
      b.config.capacitance_tolerance = 0.10;
      b.config.resistance_tolerance = 0.30;
      b.config.include_dac_mismatch = true;
      b.config.samples = 64;
      b.config.seed = rng.next();
      b.config.workers = 1;
      b.config.engine = system::ToleranceEngine::Batched;
      blocks_.push_back(std::move(b));
    }
  }

  void warm_up() override {
    for (const Block& b : blocks_) (void)system::run_tolerance_samples(b.config, 0, 8);
  }

  RoundTally round(std::size_t index) override {
    RoundTally tally;
    for (Block& b : blocks_) {
      timed(spans_, "campaign.tolerance Q=" + std::to_string(static_cast<int>(b.q)),
            static_cast<int>(index), [&] { b.report = system::run_tolerance_analysis(b.config); });
      tally.attempted += b.report.samples.size();
      tally.failed += b.report.error_count();
    }
    return tally;
  }

  void verify_round(Failures& out) override {
    for (const Block& b : blocks_) {
      const ToleranceBands bands{b.config.nominal.tank, b.config.inductance_tolerance,
                                 b.config.capacitance_tolerance,
                                 b.config.resistance_tolerance};
      const std::string q = "Q=" + std::to_string(static_cast<int>(b.q));
      for (std::size_t i = 0; i < b.report.samples.size(); ++i) {
        check_tolerance_sample(b.report.samples[i], bands, q + " sample " + std::to_string(i),
                               out);
      }
      // bench_tolerance_yield's claim: the loop absorbs the realistic
      // spread at the nominal Q = 40 with 100 % yield.
      if (b.q == 40.0) check_full_yield(b.report, q, out);
    }
  }

  void verify_final(Failures& out) override {
    // Seed-chosen samples re-run one at a time through the serial
    // reference engine must equal the batched ones bit for bit.
    InputRng rng(seed_ ^ 0x70e1);
    serial_ms_.clear();
    for (const Block& b : blocks_) {
      for (int k = 0; k < 3; ++k) {
        const int index = static_cast<int>(rng.next() % b.report.samples.size());
        system::ToleranceSample serial;
        const double s = timed(spans_, "campaign.tolerance_sample", -1, [&] {
          serial = system::run_tolerance_sample(b.config, index);
        });
        serial_ms_.push_back(s * 1e3);
        if (!same_sample(serial, b.report.samples[static_cast<std::size_t>(index)])) {
          out.push_back("Q=" + std::to_string(static_cast<int>(b.q)) + " sample " +
                        std::to_string(index) + ": batched and serial engines differ");
        }
      }
    }
  }

  void report_layers(LayerReport& report, double round_s) override {
    double samples = 0.0;
    for (const Block& b : blocks_) samples += static_cast<double>(b.report.samples.size());
    report["campaign.tolerance_span_ms_per_sample"] = round_s * 1e3 / samples;
    report["campaign.tolerance_sample_ms"] = median(serial_ms_);
    report["reconcile.explained_share"] =
        report["envelope.batched.lane_steps"] *
        report["system.envelope_lane_step_ns"] * 1e-9 / round_s;
  }

  void overhead_unit() override {
    for (const Block& b : blocks_) (void)system::run_tolerance_analysis(b.config);
  }

 private:
  struct Block {
    double q = 0.0;
    system::ToleranceConfig config;
    system::ToleranceReport report;
  };

  std::uint64_t seed_;
  SpanLog* spans_;
  std::vector<Block> blocks_;
  std::vector<double> serial_ms_;
};

// --- sensor_application ----------------------------------------------------
//
// The paper's application: a rotor-angle sweep on the physical 3-coil
// magnetics with a nominal (Q = 40) and a degraded (Q = 20) tank, plus the
// Fig. 9 dual system losing one chip's supply with the Fig. 11 and the
// Fig. 10a dead-chip I-V.  Each round draws the next two rotor angles.
// Every system starts from a calibrated NVM code, so the loop settles in
// a few ms and the runs can be half as long as bench_position_accuracy's
// and bench_dual_redundancy's start-ups from code 105.
class SensorApplication final : public Workload {
 public:
  SensorApplication(std::uint64_t seed, SpanLog* spans) : seed_(seed), spans_(spans) {}

  static constexpr double kMagneticDuration = 8e-3;
  static constexpr double kSupplyLoss = 8e-3;
  static constexpr double kDualDuration = 16e-3;

  void setup() override {
    driver::UnsuppliedDriverTestbench fig11(driver::OutputStageTopology::BulkSwitched);
    driver::UnsuppliedDriverTestbench fig10a(driver::OutputStageTopology::StandardCmos);
    iv_fig11_ = fig11.extract_iv(-3.0, 3.0, 41);
    iv_fig10a_ = fig10a.extract_iv(-3.0, 3.0, 41);
    for (const double q : {40.0, 20.0}) {
      system::MagneticSensorConfig cfg;
      cfg.tank = tank_at(q);
      cfg.regulation.tick_period = 0.25e-3;
      cfg.regulation.nvm_code = calibrated_code(cfg.tank, cfg.regulation);
      magnetic_.push_back(cfg);
    }
    dual_.tanks.tank1 = tank_at(40.0);
    dual_.tanks.tank2 = dual_.tanks.tank1;
    dual_.tanks.coupling = 0.15;
    dual_.regulation.tick_period = 0.2e-3;
    dual_.regulation.nvm_code = calibrated_code(dual_.tanks.tank1, dual_.regulation);
  }

  void warm_up() override {
    system::MagneticSensorSystem sys(magnetic_[0]);
    (void)sys.run(1e-3);
  }

  RoundTally round(std::size_t index) override {
    const int r = static_cast<int>(index);
    InputRng rng(seed_ + 0x9E3779B97F4A7C15ULL * (index + 1));
    for (std::size_t k = 0; k < magnetic_.size(); ++k) {
      system::MagneticSensorConfig cfg = magnetic_[k];
      cfg.rotor_angle = rng.uniform(-std::numbers::pi, std::numbers::pi);
      drawn_[k] = cfg.rotor_angle;
      timed(spans_, k == 0 ? "system.magnetic Q=40" : "system.magnetic Q=20", r, [&] {
        system::MagneticSensorSystem sys(cfg);
        sensed_[k] = sys.run(kMagneticDuration);
      });
    }
    const PwlTable* tables[2] = {&iv_fig11_, &iv_fig10a_};
    for (std::size_t k = 0; k < 2; ++k) {
      timed(spans_, k == 0 ? "system.dual fig11" : "system.dual fig10a", r, [&] {
        system::DualSystem sys(dual_);
        sys.schedule_supply_loss(kSupplyLoss, *tables[k]);
        const system::DualRunResult res = sys.run(kDualDuration);
        // Live amplitude over the 2 ms before the loss and 5-8 ms after.
        dual_out_[k] = {res.mean_envelope1(kSupplyLoss - 2e-3, kSupplyLoss),
                        res.mean_envelope1(kSupplyLoss + 5e-3, kDualDuration)};
      });
    }
    return {4, 0};
  }

  void verify_round(Failures& out) override {
    const Window window = default_window();
    // Ratiometric angle estimate on regulated excitation: within 0.5 deg.
    const double bound = 0.5 * std::numbers::pi / 180.0;
    for (std::size_t k = 0; k < magnetic_.size(); ++k) {
      const std::string label = k == 0 ? "magnetic Q=40" : "magnetic Q=20";
      check_angle(sensed_[k].estimated_angle, drawn_[k], bound, label, out);
      check_in_window(sensed_[k].settled_amplitude, window, label + " excitation", out);
    }
    check_dual_survives(dual_out_[0], window, out);
    check_dual_dragged_down(dual_out_[1], window, out);
  }

  void verify_final(Failures&) override {}

  void report_layers(LayerReport& report, double round_s) override {
    double magnetic_steps = 0.0;
    for (const auto& cfg : magnetic_) magnetic_steps += rk4_steps(kMagneticDuration, cfg.tank);
    const double dual_steps = 2.0 * rk4_steps(kDualDuration, dual_.tanks.tank1);
    report["reconcile.explained_share"] =
        (magnetic_steps * report["system.magnetic_step_ns"] +
         dual_steps * report["system.dual_step_ns"]) *
        1e-9 / round_s;
  }

  void overhead_unit() override {
    system::MagneticSensorSystem sys(magnetic_[0]);
    (void)sys.run(kMagneticDuration);
  }

 private:
  std::uint64_t seed_;
  SpanLog* spans_;
  PwlTable iv_fig11_;
  PwlTable iv_fig10a_;
  std::vector<system::MagneticSensorConfig> magnetic_;
  system::DualSystemConfig dual_;
  double drawn_[2] = {0.0, 0.0};
  system::MagneticSensorResult sensed_[2];
  DualOutcome dual_out_[2];
};

// --- circuit_sweeps --------------------------------------------------------
//
// Unsupplied-driver DC sweeps (Figs. 10a, 10b, 11) from the C++ testbench
// and from the netlist files, on the 41- and 61-point grids of the benches
// and tests plus a 121-point grid, and the transistor-level cross-coupled
// pair transient at seed-drawn tail currents.
class CircuitSweeps final : public Workload {
 public:
  CircuitSweeps(std::uint64_t seed, SpanLog* spans) : seed_(seed), spans_(spans) {}

  static constexpr std::size_t kGrids[3] = {41, 61, 121};

  void setup() override {
    const std::string fig10a_text = read_text("netlists/fig10a_unsupplied.sp");
    const std::string fig11_text = read_text("netlists/fig11_output_stage.sp");
    netlists_.push_back({"fig10a.sp", spice::parse_netlist(fig10a_text)});
    netlists_.push_back({"fig11.sp", spice::parse_netlist(fig11_text)});
    for (const auto topology :
         {driver::OutputStageTopology::StandardCmos, driver::OutputStageTopology::SeriesPmos,
          driver::OutputStageTopology::BulkSwitched}) {
      testbenches_.push_back(std::make_unique<driver::UnsuppliedDriverTestbench>(topology));
    }
    InputRng rng(seed_);
    for (int k = 0; k < 3; ++k) tail_currents_.push_back(rng.uniform(0.5e-3, 4.0e-3));
  }

  void warm_up() override {
    (void)testbenches_[0]->sweep(-3.0, 3.0, 11);
    (void)run_pair_transient(1e-3);
  }

  RoundTally round(std::size_t index) override {
    const int r = static_cast<int>(index);
    RoundTally tally;
    curves_.clear();
    dc_newton_ = 0.0;
    for (const std::size_t n : kGrids) {
      const std::string grid = std::to_string(n) + "pt";
      for (auto& tb : testbenches_) {
        IvCurve curve;
        curve.label = driver::to_string(tb->topology()) + " " + grid;
        timed(spans_, "spice.sweep testbench " + grid, r, [&] {
          const driver::UnsuppliedSweep sweep = tb->sweep(-3.0, 3.0, n);
          for (const auto& p : sweep.points) {
            curve.vd.push_back(p.differential_voltage);
            curve.current.push_back(p.pin_current);
            curve.converged.push_back(p.converged);
          }
        });
        curves_.push_back(std::move(curve));
      }
      for (auto& [name, circuit] : netlists_) {
        IvCurve curve;
        curve.label = name + " " + grid;
        timed(spans_, "spice.sweep netlist " + grid, r, [&] {
          auto* source = circuit->find_as<spice::VoltageSource>("Vdiff");
          spice::DcOptions options;
          options.max_iterations = 500;  // as the testbench sweeps
          const spice::SweepResult sweep =
              spice::dc_sweep(*circuit, *source, spice::linspace(-3.0, 3.0, n), options);
          const spice::StampContext ctx;
          for (const auto& p : sweep.points) {
            curve.vd.push_back(p.value);
            curve.current.push_back(p.converged ? -source->branch_current(p.solution.x, ctx)
                                                : 0.0);
            curve.converged.push_back(p.converged);
            dc_newton_ += p.solution.iterations;
          }
        });
        curves_.push_back(std::move(curve));
      }
    }
    for (const IvCurve& c : curves_) {
      tally.attempted += c.vd.size();
      tally.failed += c.failed_points();
    }
    pairs_.clear();
    for (const double itail : tail_currents_) {
      timed(spans_, "spice.transient pair", r, [&] { pairs_.push_back(run_pair_transient(itail)); });
    }
    tally.attempted += pairs_.size();
    failed_points_ = static_cast<double>(tally.failed);
    return tally;
  }

  void verify_round(Failures& out) override {
    // Curves come in blocks of five per grid: testbench 10a, 10b, 11, then
    // netlist 10a, 11.
    for (std::size_t g = 0; g < std::size(kGrids); ++g) {
      const IvCurve* block = &curves_[5 * g];
      for (int k = 0; k < 5; ++k) check_odd(block[k], 1e-6, 1e-3, out);
      check_same_iv(block[0], block[3], out);
      check_same_iv(block[2], block[4], out);
      // Fig. 17 over the 2.7 Vpp operating range.
      check_leakage_order(block[2], block[0], 1.35, out);
    }
    for (const PairTransient& p : pairs_) check_pair_transient(p, tank_at(40.0), 0.03, 0.005, out);
  }

  void verify_final(Failures&) override {}

  void report_layers(LayerReport& report, double round_s) override {
    report["spice.dc_newton_iterations"] = dc_newton_;
    report["spice.dc_failed_points"] = failed_points_;
    double points = 0.0;
    for (const IvCurve& c : curves_) points += static_cast<double>(c.vd.size());
    const double transient_steps = static_cast<double>(pairs_.size()) * kPairTransientSteps;
    report["reconcile.explained_share"] =
        (points * report["spice.dc_point_us"] * 1e-6 +
         transient_steps * report["spice.transient_step_us"] * 1e-6) /
        round_s;
  }

  void overhead_unit() override { (void)round(0); }

 private:
  std::uint64_t seed_;
  SpanLog* spans_;
  std::vector<std::pair<std::string, std::unique_ptr<spice::Circuit>>> netlists_;
  std::vector<std::unique_ptr<driver::UnsuppliedDriverTestbench>> testbenches_;
  std::vector<double> tail_currents_;
  std::vector<IvCurve> curves_;
  std::vector<PairTransient> pairs_;
  double dc_newton_ = 0.0;
  double failed_points_ = 0.0;
};

}  // namespace

PairTransient run_pair_transient(double itail) {
  const tank::TankConfig tk = tank_at(40.0);
  spice::Circuit c;
  c.voltage_source("Vdd", "vdd", "0", 5.0);
  c.inductor("L1", "vdd", "m1", tk.inductance / 2.0, itail / 2.0);
  c.resistor("Rs1", "m1", "lc1", tk.series_resistance / 2.0);
  c.inductor("L2", "vdd", "m2", tk.inductance / 2.0, itail / 2.0);
  c.resistor("Rs2", "m2", "lc2", tk.series_resistance / 2.0);
  c.capacitor("C1", "lc1", "0", tk.capacitance1, 5.1);
  c.capacitor("C2", "lc2", "0", tk.capacitance2, 4.9);
  c.mosfet("M1", "lc1", "lc2", "tail", "0", spice::nmos_035um(200.0));
  c.mosfet("M2", "lc2", "lc1", "tail", "0", spice::nmos_035um(200.0));
  c.current_source("Itail", "tail", "0", itail);

  spice::TransientOptions opt;
  opt.t_stop = 60e-6;
  opt.dt = 2e-9;  // 60 us / kPairTransientSteps
  opt.integration = spice::Integration::Trapezoidal;
  opt.start_from_dc = false;
  const spice::TransientResult r = spice::run_transient(c, opt, {"lc1", "lc2"});

  Trace vd("vd");
  const Trace& v1 = r.trace("lc1");
  const Trace& v2 = r.trace("lc2");
  for (std::size_t i = 0; i < v1.size(); ++i) {
    vd.append(v1.time(i) + 1e-15, v1.value(i) - v2.value(i));
  }
  const Trace tail = vd.window(40e-6, opt.t_stop);
  return {itail, peak_amplitude(tail), estimate_frequency(tail).value_or(0.0)};
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        SpanLog* spans) {
  if (name == "fault_campaign") return std::make_unique<FaultCampaign>(seed, spans);
  if (name == "tolerance_yield") return std::make_unique<ToleranceYield>(seed, spans);
  if (name == "sensor_application") return std::make_unique<SensorApplication>(seed, spans);
  if (name == "circuit_sweeps") return std::make_unique<CircuitSweeps>(seed, spans);
  return nullptr;
}

}  // namespace perfbench
