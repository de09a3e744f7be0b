// Timing, statistics and span recording shared by the benchmark workloads.
#pragma once

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic time in seconds (CLOCK_MONOTONIC on Linux, the clock the
// launcher stamps the process start with).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The CPUs the benchmark may run on.  The launcher starts the process
// pinned to one CPU for its cold set-up and passes the whole set in
// PERFBENCH_CPUS ("0,1,3"); without it, the process's affinity.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    if (const char* list = std::getenv("PERFBENCH_CPUS")) {
      for (const char* p = list; *p != '\0';) {
        char* end = nullptr;
        const long c = std::strtol(p, &end, 10);
        if (end == p || c < 0 || c >= CPU_SETSIZE) return std::vector<int>{};
        allowed.push_back(static_cast<int>(c));
        p = *end == ',' ? end + 1 : end;
      }
      return allowed;
    }
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  return cpus;
}

inline void pin_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// Pins the process to the next allowed CPU, round robin.  On a shared
// virtual machine each vCPU runs fast or slow for a fraction of a second
// to seconds at a time, depending on its host neighbours; a run left on
// one vCPU inherits that vCPU's state for its whole length, while one
// that moves at every round samples each vCPU.
inline void pin_next_cpu() {
  static std::size_t next = 0;
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  pin_cpu(cpus[next++ % cpus.size()]);
}

inline volatile double g_probe_sink = 0.0;

// Pins the process to the allowed CPU that runs a fixed chain of
// floating-point operations fastest (best of three tries, ~0.2 ms each),
// for a unit of work that runs once per run and so cannot take the best
// of several rounds.
inline void pin_fastest_cpu() {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  int best_cpu = cpus.front();
  double best = 1e300;
  for (const int cpu : cpus) {
    pin_cpu(cpu);
    for (int rep = 0; rep < 3; ++rep) {
      const double start = now_s();
      double x = 1.0;
      for (int i = 0; i < 100000; ++i) x = x * 0.9999999 + 1e-7;
      g_probe_sink = x;
      const double t = now_s() - start;
      if (t < best) {
        best = t;
        best_cpu = cpu;
      }
    }
  }
  pin_cpu(best_cpu);
}

// Quantile with linear interpolation between order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// A round's time at the fastest the machine ran each unit of it: the sum
// over units of each unit's minimum over the rounds.  Rounds have the same
// composition, so unit k of every round is the same work.
inline double fastest_round(const std::vector<std::vector<double>>& units) {
  double total = 0.0;
  for (std::size_t k = 0; k < units.front().size(); ++k) {
    double best = units.front()[k];
    for (const auto& round : units) best = std::min(best, round.at(k));
    total += best;
  }
  return total;
}

// Per-layer metric values of a traced run, by name.
using LayerReport = std::map<std::string, double>;

// In-memory span log of a traced run: one span per call into a layer,
// made from the benchmark's own files, written out once at exit as Chrome
// trace-event JSON.  A null log (untraced run) records nothing.
class SpanLog {
 public:
  void add(std::string name, double start, double end, int round) {
    spans_.push_back({std::move(name), start, end, round});
  }

  void write(const std::string& path, double origin) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
          << "\"ts\": " << (s.start - origin) * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
          << ", \"args\": {\"round\": " << s.round << "}}" << (i + 1 < spans_.size() ? "," : "")
          << "\n";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int round;
  };
  std::vector<Span> spans_;
};

// While set, every timed() call appends its wall time here: the
// durations of one round's units of work, in call order.
inline std::vector<double>* g_unit_times = nullptr;

// Times `fn()` and, when `log` is set, records it as one span.  Returns
// the wall time in seconds.
template <typename Fn>
double timed(SpanLog* log, const std::string& name, int round, Fn&& fn) {
  const double start = now_s();
  fn();
  const double end = now_s();
  if (log != nullptr) log->add(name, start, end, round);
  if (g_unit_times != nullptr) g_unit_times->push_back(end - start);
  return end - start;
}

}  // namespace perfbench
