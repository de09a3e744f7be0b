#include "waveform/measurements.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "waveform/envelope_tracker.h"

namespace lcosc {

double peak_amplitude(const Trace& trace) {
  LCOSC_REQUIRE(!trace.empty(), "trace is empty");
  double peak = 0.0;
  for (const double v : trace.values()) peak = std::max(peak, std::abs(v));
  return peak;
}

double peak_amplitude_tail(const Trace& trace, double tail_duration) {
  LCOSC_REQUIRE(!trace.empty(), "trace is empty");
  const double t0 = trace.end_time() - tail_duration;
  double peak = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.time(i) >= t0) peak = std::max(peak, std::abs(trace.value(i)));
  }
  return peak;
}

double peak_to_peak(const Trace& trace) {
  LCOSC_REQUIRE(!trace.empty(), "trace is empty");
  const auto [lo, hi] = std::minmax_element(trace.values().begin(), trace.values().end());
  return *hi - *lo;
}

double rms(const Trace& trace) {
  LCOSC_REQUIRE(trace.size() >= 2, "rms needs at least two samples");
  double acc = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace.time(i) - trace.time(i - 1);
    const double v0 = trace.value(i - 1);
    const double v1 = trace.value(i);
    acc += 0.5 * dt * (v0 * v0 + v1 * v1);
  }
  return std::sqrt(acc / trace.duration());
}

double mean(const Trace& trace) {
  LCOSC_REQUIRE(trace.size() >= 2, "mean needs at least two samples");
  double acc = 0.0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double dt = trace.time(i) - trace.time(i - 1);
    acc += 0.5 * dt * (trace.value(i - 1) + trace.value(i));
  }
  return acc / trace.duration();
}

std::vector<double> rising_crossings(const Trace& trace, double level) {
  std::vector<double> crossings;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const double v0 = trace.value(i - 1) - level;
    const double v1 = trace.value(i) - level;
    if (v0 < 0.0 && v1 >= 0.0) {
      const double f = v0 / (v0 - v1);
      crossings.push_back(trace.time(i - 1) + f * (trace.time(i) - trace.time(i - 1)));
    }
  }
  return crossings;
}

std::optional<double> estimate_frequency(const Trace& trace, double level) {
  const auto crossings = rising_crossings(trace, level);
  if (crossings.size() < 2) return std::nullopt;
  const double span = crossings.back() - crossings.front();
  if (span <= 0.0) return std::nullopt;
  return static_cast<double>(crossings.size() - 1) / span;
}

std::optional<double> estimate_frequency_tail(const Trace& trace, double tail_duration,
                                              double level) {
  if (trace.empty()) return std::nullopt;
  const Trace tail = trace.window(trace.end_time() - tail_duration, trace.end_time());
  return estimate_frequency(tail, level);
}

Trace extract_envelope(const Trace& trace, double level) {
  Trace envelope(trace.name() + ".env");
  EnvelopeTracker tracker;
  if (!trace.empty()) tracker.last_positive = trace.value(0) - level >= 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    tracker.track(envelope, trace.time(i), trace.value(i) - level);
  }
  // The trailing (possibly partial) half cycle counts too.
  if (tracker.have && (envelope.empty() || tracker.peak_time > envelope.end_time())) {
    envelope.append(tracker.peak_time, tracker.peak);
  }
  return envelope;
}

std::optional<double> settling_time(const Trace& trace, double target, double tolerance) {
  LCOSC_REQUIRE(!trace.empty(), "trace is empty");
  // Scan backwards for the last sample outside the band.
  std::size_t last_outside = trace.size();  // sentinel: all inside
  for (std::size_t i = trace.size(); i-- > 0;) {
    if (std::abs(trace.value(i) - target) > tolerance) {
      last_outside = i;
      break;
    }
  }
  if (last_outside == trace.size()) return trace.start_time();
  if (last_outside + 1 >= trace.size()) return std::nullopt;  // still outside at the end
  return trace.time(last_outside + 1);
}

namespace {

// Fourier coefficient magnitude at `frequency_hz` over an integer number of
// periods (truncated from the trace end).
double fourier_component(const Trace& trace, double frequency_hz) {
  const double period = 1.0 / frequency_hz;
  const double whole = std::floor(trace.duration() / period) * period;
  if (whole <= 0.0) return 0.0;
  const double t_begin = trace.end_time() - whole;

  std::size_t first = 0;
  while (first < trace.size() && trace.time(first) < t_begin) ++first;
  if (first == trace.size()) return 0.0;

  double re = 0.0;
  double im = 0.0;
  double prev_t = 0.0;
  double prev_re = 0.0;
  double prev_im = 0.0;
  bool primed = false;
  if (first > 0 && trace.time(first) > t_begin) {
    // The window boundary falls between two samples: interpolate the
    // value at t_begin so the partial trapezoid is integrated instead of
    // dropped (dropping it biases magnitudes low on coarse traces).
    const double t0 = trace.time(first - 1);
    const double t1 = trace.time(first);
    const double frac = (t_begin - t0) / (t1 - t0);
    const double v = trace.value(first - 1) + frac * (trace.value(first) - trace.value(first - 1));
    const double w = kTwoPi * frequency_hz * t_begin;
    prev_t = t_begin;
    prev_re = v * std::cos(w);
    prev_im = v * std::sin(w);
    primed = true;
  }
  for (std::size_t i = first; i < trace.size(); ++i) {
    const double t = trace.time(i);
    const double w = kTwoPi * frequency_hz * t;
    const double vre = trace.value(i) * std::cos(w);
    const double vim = trace.value(i) * std::sin(w);
    if (primed) {
      const double dt = t - prev_t;
      re += 0.5 * dt * (prev_re + vre);
      im += 0.5 * dt * (prev_im + vim);
    }
    prev_t = t;
    prev_re = vre;
    prev_im = vim;
    primed = true;
  }
  // Amplitude of the component: 2/T * |integral|.
  return 2.0 / whole * std::hypot(re, im);
}

}  // namespace

double fourier_magnitude(const Trace& trace, double frequency_hz) {
  LCOSC_REQUIRE(frequency_hz > 0.0, "frequency must be positive");
  return fourier_component(trace, frequency_hz);
}

double total_harmonic_distortion(const Trace& trace, double fundamental_hz, int max_harmonic) {
  LCOSC_REQUIRE(max_harmonic >= 2, "need at least the 2nd harmonic");
  const double fundamental = fourier_component(trace, fundamental_hz);
  if (fundamental <= 0.0) return 0.0;
  double harmonics_sq = 0.0;
  for (int h = 2; h <= max_harmonic; ++h) {
    const double mag = fourier_component(trace, fundamental_hz * h);
    harmonics_sq += mag * mag;
  }
  return std::sqrt(harmonics_sq) / fundamental;
}

}  // namespace lcosc
