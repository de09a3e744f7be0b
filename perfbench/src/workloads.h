// The benchmark's four workloads.  A workload builds its inputs from the
// seed in setup(), then the driver runs whole rounds of identical
// composition: round() is the timed unit of work, verify_round() checks
// its outputs untimed, and verify_final() makes the cross-checks that need
// a second construction of a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "checks.h"
#include "harness.h"

namespace perfbench {

struct RoundTally {
  std::size_t attempted = 0;  // operations (cases) the round ran
  std::size_t failed = 0;     // of those, operations that produced no result
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds configs, testbenches and fault lists, parses netlists and
  // extracts I-V tables: everything a user pays once before the work.
  virtual void setup() = 0;
  // Runs a little of the work untimed so code and data are paged in.
  virtual void warm_up() = 0;
  // One timed unit of work.  `index` counts rounds from 0.
  virtual RoundTally round(std::size_t index) = 0;
  virtual void verify_round(Failures& out) = 0;
  virtual void verify_final(Failures& out) = 0;
  // Traced runs only: the per-layer metrics of the calls this workload
  // made, and the counts used to reconcile its wall time.
  virtual void report_layers(LayerReport& report, double round_s) = 0;
  // A short, representative piece of the work, run once with telemetry
  // off and once with it on to measure the telemetry overhead.
  virtual void overhead_unit() = 0;
};

// bench_crossvalidation's cross-coupled NMOS pair on the Q = 40 tank: a
// 60 us trapezoidal transient from rest in kPairTransientSteps steps,
// measured over its last 20 us.
inline constexpr double kPairTransientSteps = 30000.0;
[[nodiscard]] PairTransient run_pair_transient(double tail_current);

// Reads the checkout's netlist files relative to the working directory.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, SpanLog* spans);

}  // namespace perfbench
