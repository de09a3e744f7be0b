// Per-half-cycle envelope of a differential oscillator voltage, tracked
// sample by sample inside an integration loop: the peak |v| of each half
// cycle is appended to a Trace when the sign flips.
#pragma once

#include <cmath>

#include "waveform/trace.h"

namespace lcosc {

struct EnvelopeTracker {
  double peak = 0.0;
  double peak_time = 0.0;
  bool have = false;
  bool last_positive = true;

  // Feed the sample vd at time t; completed half-cycle peaks go to `out`.
  void track(Trace& out, double t, double vd) {
    const bool positive = vd >= 0.0;
    if (positive != last_positive) {
      if (have && (out.empty() || peak_time > out.end_time())) {
        out.append(peak_time, peak);
      }
      peak = 0.0;
      have = false;
      last_positive = positive;
    }
    if (std::abs(vd) >= peak) {
      peak = std::abs(vd);
      peak_time = t;
      have = true;
    }
  }
};

}  // namespace lcosc
