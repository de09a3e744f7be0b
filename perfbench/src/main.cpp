// lcosc_perfbench: one workload per process, single-threaded.
//
//   lcosc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--setup-only <0|1>] [--span-file <path>]
//
// Runs the workload's set-up, a warm-up, then whole rounds of identical
// composition for about --seconds, checks every output, and prints one
// JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// cases_per_s, peak_rss_mb); with --trace 1 they are the per-layer ones.
// The launcher (run.py) passes the process's spawn time on the monotonic
// clock in PERFBENCH_SPAWN_NS so setup_s starts at exec, not at main().
// With --setup-only 1 the process stops after its set-up and prints only
// {"setup_s": ...}: the launcher starts a few such processes, each cold,
// and reports the fastest set-up.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct PerLayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run prints, in BENCHMARK.json order.
// Counts are per round of the traced workload; a count of a layer the
// workload does not call reads 0.
constexpr PerLayerMetric kPerLayer[] = {
    {"numeric.lu_factor_solve_us", "us"},
    {"spice.testbench_build_us", "us"},
    {"spice.netlist_parse_us", "us"},
    {"spice.dc_point_us", "us"},
    {"spice.dc_newton_iterations", "count"},
    {"spice.dc_failed_points", "count"},
    {"spice.transient_step_us", "us"},
    {"transient.newton_iterations", "count"},
    {"transient.factorizations", "count"},
    {"driver.output_ns", "ns"},
    {"driver.set_code_ns", "ns"},
    {"regulation.detector_step_ns", "ns"},
    {"regulation.fsm_tick_ns", "ns"},
    {"safety.step_ns", "ns"},
    {"devices.sync_rectifier_step_ns", "ns"},
    {"devices.bank_lane_ns", "ns"},
    {"tank.current_derivatives_ns", "ns"},
    {"dac.mismatched_dac_us", "us"},
    {"system.step_ns", "ns"},
    {"system.settle_ms", "ms"},
    {"system.steps", "count"},
    {"system.magnetic_step_ns", "ns"},
    {"system.dual_step_ns", "ns"},
    {"system.envelope_lane_step_ns", "ns"},
    {"envelope.batched.lane_steps", "count"},
    {"envelope.batched.substeps", "count"},
    {"campaign.fmea_case_ms", "ms"},
    {"campaign.fmea_case_ms_p90", "ms"},
    {"campaign.internal_case_ms", "ms"},
    {"campaign.internal_span_ms_per_case", "ms"},
    {"campaign.retries", "count"},
    {"campaign.tolerance_sample_ms", "ms"},
    {"campaign.tolerance_span_ms_per_sample", "ms"},
    {"obs.metrics_overhead", "ratio"},
    {"reconcile.explained_share", "ratio"},
};

// Program counters read per round from the metrics registry.
constexpr const char* kRoundCounters[] = {
    "system.steps",          "campaign.retries",        "envelope.batched.lane_steps",
    "envelope.batched.substeps", "transient.newton_iterations", "transient.factorizations",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool setup_only = false;
  std::string span_file;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--setup-only") {
      if (value != "0" && value != "1") return false;
      args.setup_only = value == "1";
    } else if (key == "--span-file") {
      args.span_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args.seconds > 0.0 && args.trace >= 0 &&
         make_workload(args.workload, 0, nullptr) != nullptr;
}

double process_start(double fallback) {
  const char* spawn = std::getenv("PERFBENCH_SPAWN_NS");
  if (spawn == nullptr) return fallback;
  return static_cast<double>(std::strtoll(spawn, nullptr, 10)) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_metric(bool& first, const std::string& name, double value, const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit.c_str());
  first = false;
}

// Wall time of one unit of the workload with telemetry on over off: the
// median ratio of kOverheadPairs pairs on one CPU, the order within a pair
// alternating so a drift of the machine's speed cancels.
double metrics_overhead(Workload& workload, SpanLog* spans) {
  constexpr int kOverheadPairs = 4;
  pin_fastest_cpu();
  const auto unit = [&](bool metrics) {
    lcosc::obs::set_metrics_enabled(metrics);
    return timed(metrics ? spans : nullptr, "overhead_unit", -1,
                 [&] { workload.overhead_unit(); });
  };
  std::vector<double> ratios;
  for (int k = 0; k < kOverheadPairs; ++k) {
    const bool on_first = k % 2 == 1;
    const double first = unit(on_first);
    const double second = unit(!on_first);
    ratios.push_back(on_first ? first / second : second / first);
  }
  lcosc::obs::set_metrics_enabled(true);
  return median(ratios);
}

int run(const Args& args, double main_entry) {
  const double start = process_start(main_entry);
  // The unsupplied testbenches warn on every non-converged DC point; the
  // benchmark counts those points itself.
  lcosc::set_log_level(lcosc::LogLevel::Error);
  const bool traced = args.trace == 1;
  lcosc::obs::set_metrics_enabled(traced);
  SpanLog span_log;
  SpanLog* spans = traced ? &span_log : nullptr;

  const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, spans);
  workload->setup();
  const double setup_s = now_s() - start;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  workload->warm_up();

  auto& registry = lcosc::obs::MetricsRegistry::instance();
  registry.reset();
  Failures failures;
  std::vector<double> walls;
  std::vector<std::vector<double>> units;
  RoundTally total;
  RoundTally per_round;
  const double loop_start = now_s();
  do {
    pin_next_cpu();
    units.emplace_back();
    g_unit_times = &units.back();
    const double round_start = now_s();
    per_round = workload->round(walls.size());
    walls.push_back(now_s() - round_start);
    g_unit_times = nullptr;
    total.attempted += per_round.attempted;
    total.failed += per_round.failed;
    workload->verify_round(failures);
  } while (now_s() - loop_start + median(walls) <= args.seconds);
  const lcosc::obs::MetricsSnapshot counters = registry.snapshot();
  workload->verify_final(failures);

  const double median_round = median(walls);
  const double fast_round = fastest_round(units);
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": setup %.4f s, %zu rounds, round min %.4f q1 %.4f "
               "median %.4f q3 %.4f max %.4f s\n",
               args.workload.c_str(), args.seed, setup_s, walls.size(), quantile(walls, 0.0),
               quantile(walls, 0.25), median_round, quantile(walls, 0.75), quantile(walls, 1.0));
  std::fprintf(stderr, "fastest round %.4f s\n", fast_round);
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  LayerReport layers;
  if (traced) {
    run_layer_probes(layers, spans);
    const auto rounds = static_cast<double>(walls.size());
    for (const char* name : kRoundCounters) {
      const lcosc::obs::CounterSnapshot* c = counters.find_counter(name);
      layers[name] = c == nullptr ? 0.0 : static_cast<double>(c->value) / rounds;
    }
    layers["obs.metrics_overhead"] = metrics_overhead(*workload, spans);
    workload->report_layers(layers, fast_round);
    if (!args.span_file.empty()) span_log.write(args.span_file, start);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failures.empty() ? "true" : "false", total.attempted, total.failed);
  bool first = true;
  if (traced) {
    for (const PerLayerMetric& m : kPerLayer) {
      print_metric(first, m.name, layers[m.name], m.unit);
      layers.erase(m.name);
    }
    if (!layers.empty()) {
      std::fprintf(stderr, "internal error: unlisted per-layer metric %s\n",
                   layers.begin()->first.c_str());
      return 3;
    }
  } else {
    const double completed = static_cast<double>(per_round.attempted - per_round.failed);
    print_metric(first, "setup_s", setup_s, "s");
    print_metric(first, "cases_per_s", completed / fast_round, "cases/s");
    print_metric(first, "peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_entry = now_s();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lcosc_perfbench --workload <fault_campaign|tolerance_yield|"
                 "sensor_application|circuit_sweeps> --seed <n> --seconds <s> --trace <0|1> "
                 "[--setup-only <0|1>] [--span-file <path>]\n");
    return 2;
  }
  try {
    return run(args, main_entry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
