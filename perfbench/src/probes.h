// Unit-cost probes of a traced run: each times calls into one layer's
// public functions on fixed inputs, independent of the workload and seed,
// so the same number is comparable across workloads and commits.
#pragma once

#include "harness.h"

namespace perfbench {

// Fills the unit-cost metrics (numeric.*, spice.* build/parse/point/step,
// driver.*, regulation.*, safety.*, devices.*, tank.*, dac.*, system.*
// step costs and settle time).  Needs telemetry on for the envelope lane
// count.  Reads the Fig. 11 netlist file relative to the working directory.
void run_layer_probes(LayerReport& report, SpanLog* spans);

}  // namespace perfbench
