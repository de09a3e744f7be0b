#!/usr/bin/env python3
"""Build and run one workload of the lcosc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the library sources in src/ with the repository's default
RelWithDebInfo + LTO flags) into .bench_build/perfbench; later calls only
check that the build is current.  The workload then runs in its own process
on one thread, with telemetry off (--trace 0, end-to-end metrics) or with
LCOSC_METRICS=1 (--trace 1, per-layer metrics, spans written to
.bench_build/perfbench/spans-<workload>-<seed>.json).  The last line of
standard output is the result JSON.  Its setup_s is the fastest of
several cold set-ups, each timed in a fresh process from its spawn to the
end of set-up: SETUPS_BEFORE processes that stop after set-up, the measured
run's own, then SETUPS_AFTER more.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lcosc_perfbench")
WORKLOADS = ("fault_campaign", "tolerance_yield", "sensor_application", "circuit_sweeps")
# Set-up-only processes started before and after the measured run.  Taking
# them on both sides of it, some 20 s apart, means that a second or two in
# which the machine is slow cannot hold all of them.
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
SETUP_TIMEOUT_S = 3
RUN_TIMEOUT_S = 150
# The CPUs this process may use when it starts; pin_fastest_cpu narrows the
# process's own affinity to one of them.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def build():
    """Configure and build the benchmark binary; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "lcosc_perfbench", "-j", "4"],
                       check=True, stdout=sys.stderr)


def workload_env(trace):
    """Single-threaded, telemetry off unless tracing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCOSC_")}
    env["LCOSC_THREADS"] = "1"
    if trace:
        env["LCOSC_METRICS"] = "1"
    return env


def pin_fastest_cpu():
    """Pin this process to the allowed CPU that runs a fixed loop fastest.

    The workload process inherits the pin, so its cold start and set-up
    (setup_s) run on a CPU that is fast at the moment rather than on
    whichever vCPU the scheduler picks: on a shared virtual machine each
    vCPU runs fast or slow for a fraction of a second or more at a time.
    Returns the whole allowed set, which the workload process takes back
    after its set-up.
    """
    cpus = ALLOWED_CPUS
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        for _ in range(3):
            start = time.perf_counter()
            sum(range(40000))
            elapsed = time.perf_counter() - start
            best[cpu] = min(best.get(cpu, elapsed), elapsed)
    os.sched_setaffinity(0, {min(cpus, key=best.get)})
    return cpus


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--span-file",
                    os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    env = workload_env(args.trace)
    setups = []

    def setup_only(count):
        """Times `count` cold set-ups into `setups`; False if one fails."""
        for _ in range(count):
            returncode, out = spawn(command + ["--setup-only", "1"], env, SETUP_TIMEOUT_S)
            if returncode != 0:
                return False
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
        return True

    if not args.trace and not setup_only(SETUPS_BEFORE):
        return 1
    returncode, out = spawn(command, env, RUN_TIMEOUT_S)
    if returncode != 0:
        sys.stdout.write(out)
        return returncode
    if not args.trace:
        if not setup_only(SETUPS_AFTER):
            return 1
        lines = out.splitlines()
        result = json.loads(lines[-1])
        setup_s = result["metrics"]["setup_s"]
        setup_s["value"] = min(setups + [setup_s["value"]])
        out = "\n".join(lines[:-1] + [json.dumps(result)]) + "\n"
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


def spawn(command, env, timeout):
    """Run one workload process, started on the CPU fastest at the moment.

    Returns its exit code (1 on a timeout) and its standard output.
    """
    env = dict(env, PERFBENCH_CPUS=",".join(str(cpu) for cpu in pin_fastest_cpu()))
    # setup_s is timed from here: the workload process's spawn.
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: workload timed out", file=sys.stderr)
            return 1, ""
    return proc.returncode, out.decode()


if __name__ == "__main__":
    sys.exit(main())
