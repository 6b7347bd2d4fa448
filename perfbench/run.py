#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
re-check the build. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

--selftest runs every workload at reduced size and checks that one
seed gives byte-identical simulated results, that another seed changes
the inputs (offsets, payloads, dataset), and that every correctness
check passes in both runs and in a traced run.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
FIG9_BASELINE = ROOT / "bench" / "baselines" / "fig9.json"
WORKLOADS = ("mine", "wide", "update")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_cmd(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    with open(BUILD / "build.log", "ab") as log:
        for cmd in steps:
            rc, _ = run_cmd(cmd, BUILD_TIMEOUT_S, stdout=log,
                            stderr=subprocess.STDOUT)
            if rc is None:
                die("build timed out")
            if rc != 0:
                die(f"build failed ({' '.join(cmd)}); "
                    f"see {BUILD / 'build.log'}")


def expected_fig9_mbps():
    try:
        gauges = json.loads(FIG9_BASELINE.read_text())["metrics"]["gauges"]
        return gauges["fig9/nasd/8_disks_mbps"]
    except (OSError, KeyError, ValueError):
        die(f"cannot read fig9/nasd/8_disks_mbps from {FIG9_BASELINE}")


def run_binary(workload, seed, seconds, trace, small=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--expect-mbps", repr(expected_fig9_mbps())]
    if small:
        cmd.append("--small")
    rc, out = run_cmd(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if rc is None:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        die(f"{workload} exited with {rc}")
    result = json.loads(lines[-1])
    for err in result["errors"]:
        print(f"perfbench: {workload}: {err}", file=sys.stderr)
    return result


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result, trace):
    spec = bench_spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            die(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def selftest(seed):
    ok = True

    def check(cond, what):
        nonlocal ok
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        ok &= bool(cond)

    for w in WORKLOADS:
        first = run_binary(w, seed, 0, False, small=True)
        again = run_binary(w, seed, 0, False, small=True)
        other = run_binary(w, seed + 1, 0, False, small=True)
        traced = run_binary(w, seed, 0, True, small=True)
        check(first["correct"] and again["correct"] and other["correct"],
              f"{w}: correctness checks pass on seeds {seed} and {seed + 1}")
        check(first["sim_digest"] == again["sim_digest"],
              f"{w}: seed {seed} repeats byte-identical simulated results")
        check(first["input_digest"] == again["input_digest"],
              f"{w}: seed {seed} repeats its inputs")
        check(first["input_digest"] != other["input_digest"],
              f"{w}: seed {seed + 1} changes the inputs")
        check(traced["correct"],
              f"{w}: traced run matches untraced and reconciles")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    build()
    if args.selftest:
        sys.exit(selftest(args.seed))
    result = run_binary(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    print(json.dumps(report(result, args.trace == 1)))


if __name__ == "__main__":
    main()
