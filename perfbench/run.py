#!/usr/bin/env python3
"""Split-protocol benchmark: builds the program, runs one workload, checks it.

    python3 perfbench/run.py --workload fig4_vgg --seed 1 --seconds 55 --trace 0

Builds perfbench/ (and through it ../src) in Release into .bench_build/, then
runs repetitions of the workload, each in its own process with a time limit,
until --seconds have passed. Every repetition is a fixed amount of work (a
fixed number of rounds), so the exact outputs must read the same in every
repetition; run.py checks them, reduces the timings (README.md, "End-to-end
metrics"), and prints one JSON line as the last line of standard output:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced repetitions (alternating with untraced ones, for the tracing
overhead) and prints the per-layer metrics.

    python3 perfbench/run.py --steadiness [--runs 10] [--seconds 55]

runs every workload of BENCHMARK.json (or --workloads) in two interleaved
sets of --runs runs (a new seed per run) and prints, per metric and
workload, each set's median, quartiles and run count, and whether the sets
agree within BENCHMARK.json's bounds.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_workload"
GOLDENS = HERE / "goldens.json"
# BENCHMARK.json measures fig4_vgg and chaos_k64; the other two stay
# runnable by hand (README.md, "Workloads").
WORKLOADS = ("fig4_vgg", "fig4_resnet_i8", "fleet_k1024", "chaos_k64")
DEFAULT_SEED = 1
# A repetition that runs longer than this is a hang (the slowest, a traced
# one, takes about 12 s).
REP_TIMEOUT_S = 40
MIN_PLAIN_REPS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Refused(Exception):
    """The benchmark cannot produce a result here."""


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def run_logged(cmd, timeout, what):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise Refused(f"{what} failed with exit code {proc.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Refused(f"no program sources under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], 300, "cmake configure")
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    # Debug numbers never enter the trajectory (the same rule as
    # scripts/bench_substrate.py).
    if build_type != "Release":
        raise Refused(f"build type is '{build_type}', not Release")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target",
                "perfbench_workload", "-j", jobs], 840, "build")


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def run_rep(workload, seed, mode, spans_out=None):
    """One repetition in its own process: (result dict, None) or
    (None, failure reason). Crashes, hangs and bad output are failures,
    never retried."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition hung (killed after {REP_TIMEOUT_S} s)"
    if proc.returncode != 0:
        what = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
                else f"exit code {proc.returncode}")
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{mode} repetition crashed ({what}): {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{mode} repetition printed no result"


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def failed_step_share(exact):
    started = exact["steps_started"]
    return (started - exact["steps_applied"]) / started


def golden_view(exact):
    return {
        "total_bytes": exact["total_bytes"],
        "messages": exact["messages"],
        "sim_clock": exact["sim_clock"],
        "test_accuracy": exact["test_accuracy"],
        "failed_step_share": failed_step_share(exact),
    }


def check_rep(rep):
    """Problems with one repetition's own output."""
    problems = []
    if rep.get("build_type") != "Release" or rep.get("ndebug") != 1:
        problems.append(f"not a Release build ({rep.get('build_type')})")
    if rep.get("threads") != 1:
        problems.append(f"ran with {rep.get('threads')} threads, not 1")
    exact = rep["exact"]
    expected = rep.get("expected_fault_free_bytes")
    if expected is not None and exact["total_bytes"] != expected:
        problems.append(f"fault-free wire bytes {exact['total_bytes']} != "
                        f"ModelStats::split_step_bytes total {expected}")
    if exact["steps_started"] < 1 or exact["examples_applied"] < 1:
        problems.append("no protocol step was applied")
    if "attribution_exact" in rep and rep["attribution_exact"] != exact:
        problems.append("observability-on run() changed the exact outputs: "
                        + first_difference(exact, rep["attribution_exact"]))
    if "layers" in rep:
        # The program's critical-path segments cover every simulated second.
        attributed = sum(v for k, v in rep["layers"].items()
                         if k.endswith("_sim_s_per_round"))
        per_round = exact["sim_clock"] / exact["rounds"]
        if abs(attributed - per_round) > 1e-9 * per_round:
            problems.append(f"attributed simulated time {attributed} s/round "
                            f"!= simulated clock {per_round} s/round")
    return problems


def first_difference(want, got):
    for key in want:
        if want[key] != got.get(key):
            return f"{key}: expected {want[key]!r}, got {got.get(key)!r}"
    return "no difference"


def check_exact(workload, seed, reps):
    """Cross-repetition and golden checks; returns problems."""
    problems = []
    ref = reps[0]["exact"]
    for rep in reps[1:]:
        if rep["exact"] != ref:
            problems.append(f"{rep['mode']} repetition's exact outputs "
                            "differ from the first repetition's: "
                            + first_difference(ref, rep["exact"]))
            break
    if seed == DEFAULT_SEED:
        golden = json.loads(GOLDENS.read_text()).get(workload)
        if golden is None:
            problems.append(f"no golden outputs recorded for {workload}")
        else:
            diff = first_difference(golden, golden_view(ref))
            if diff != "no difference":
                problems.append(f"default-seed output mismatch: {diff}")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def med(values):
    return statistics.median(values)


def end_to_end(plain):
    """Throughputs come from the fastest repetition (training) and the
    fastest pass (evaluation): on a shared host the median of repetitions
    moved 9-22 % between runs of identical code where the fastest moved
    4-6 % (README.md, "Noise")."""
    exact = plain[0]["exact"]
    m = {
        "train_examples_per_s": (
            exact["examples_applied"] / min(r["train_s"] for r in plain),
            "examples/s"),
        "eval_examples_per_s": (
            plain[0]["eval_examples_per_pass"]
            / min(t for r in plain for t in r["eval_s"]), "examples/s"),
        "setup_s": (med([t for r in plain for t in r["setup_s"]]), "s"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in plain]), "MB"),
        "wire_bytes_per_example": (
            exact["total_bytes"] / exact["examples_applied"],
            "bytes/example"),
        "sim_s_per_round": (exact["sim_clock"] / exact["rounds"],
                            "sim_s/round"),
        "test_accuracy": (exact["test_accuracy"], "fraction"),
        "applied_step_share": (
            exact["steps_applied"] / exact["steps_started"], "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(traced, plain, spec):
    """Medians of every per-layer metric BENCHMARK.json names; the second
    value lists names a traced repetition did not print."""
    out, missing = {}, []
    # Fastest against fastest, as train_examples_per_s is measured.
    traced_train = min(r["train_s"] for r in traced)
    plain_train = min(r["train_s"] for r in plain)
    for m in spec:
        name = m["name"]
        if name == "bench.trace_overhead_share":
            value = (traced_train - plain_train) / plain_train
        elif all(name in r["layers"] for r in traced):
            value = med([r["layers"][name] for r in traced])
        else:
            missing.append(name)
            continue
        out[name] = {"value": value, "unit": m["unit"]}
    return out, missing


def print_groups(traced):
    """Per-plan-group replay times (names vary by model)."""
    groups = traced[0]["nn_groups"]
    print("nn plan groups (replayed, s/round, median of "
          f"{len(traced)} traced repetitions):")
    for name in groups:
        if name.endswith(".fwd_s_per_round"):
            base = name[: -len(".fwd_s_per_round")]
            fwd = med([r["nn_groups"][name] for r in traced])
            bwd = med([r["nn_groups"][base + ".bwd_s_per_round"]
                       for r in traced])
            print(f"  nn.{base}: fwd {fwd:.6f}  bwd {bwd:.6f}")


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def run_once(workload, seed, seconds, trace):
    build()
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, failures = [], [], []
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        enough_plain = len(plain) + len(failures) >= (1 if trace else
                                                      MIN_PLAIN_REPS)
        enough_traced = not trace or len(traced) >= 1
        if elapsed >= seconds and enough_plain and enough_traced:
            break
        mode = "traced" if trace and i % 2 == 0 else "plain"
        i += 1
        spans = (spans_dir / f"{workload}_seed{seed}.jsonl"
                 if mode == "traced" else None)
        rep, why = run_rep(workload, seed, mode, spans)
        if rep is None:
            failures.append(why)
            log(why)
            if len(failures) >= 3:
                break
            continue
        problems = check_rep(rep)
        if problems:
            failures.append("; ".join(problems))
            log(f"{mode} repetition failed its check: {failures[-1]}")
            continue
        (traced if mode == "traced" else plain).append(rep)

    # Raw repetitions, for inspecting a run after the fact.
    with open(spans_dir.parent / f"{workload}_seed{seed}_trace{trace}.jsonl",
              "w") as raw:
        for rep in plain + traced:
            raw.write(json.dumps(rep) + "\n")

    attempted = len(plain) + len(traced) + len(failures)
    problems = list(failures)
    if plain or traced:
        problems += check_exact(workload, seed, plain + traced)
    if not plain or (trace and not traced):
        problems.append("no successful repetition to report")
        metrics = {}
    elif trace:
        print_groups(traced)
        metrics, missing = per_layer(traced, plain, bench_spec()["per_layer"])
        if missing:
            problems.append("traced run printed no " + ", ".join(missing))
    else:
        metrics = end_to_end(plain)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Steadiness report
# ---------------------------------------------------------------------------

def spread_row(name, label, values, bound):
    """Prints one row; returns (median, spread)."""
    if len(values) < 2:
        print(f"{name:24} {label:4} {len(values):3}  (too few runs)")
        return (values[0] if values else None), float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    verdict = ("steady" if spread <= bound / 3 else
               "within bound" if spread <= bound else "TOO NOISY")
    print(f"{name:24} {label:4} {len(values):3} {q1:12.6g} {q2:12.6g} "
          f"{q3:12.6g} {spread:7.3f} {bound:6.3f}  {verdict}")
    return q2, spread


def steadiness(runs, seconds, workloads):
    """Two interleaved sets of `runs` runs per workload, a new seed each."""
    bounds = bench_spec()["end_to_end"]
    results = {w: ([], []) for w in workloads}
    seed = 1000
    me = [sys.executable, str(Path(__file__).resolve())]
    # Interleave sets and workloads so a slow phase of the host spreads over
    # all of them instead of landing on one set.
    for i in range(runs):
        for w in workloads:
            for s in (0, 1):
                seed += 1
                proc = subprocess.run(
                    me + ["--workload", w, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                    check=False)
                line = (proc.stdout.strip().splitlines() or ["{}"])[-1]
                out = json.loads(line) if line.startswith("{") else {}
                if proc.returncode != 0 or not out.get("correct"):
                    log(f"{w} seed {seed}: run failed "
                        f"({proc.stderr.strip()[-300:]})")
                    continue
                results[w][s].append(out["metrics"])
                log(f"{w} set {'AB'[s]} run {i + 1}/{runs} seed {seed} done")
    ok = True
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"{'metric':24} {'set':4} {'n':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in bounds:
            name, bound = m["name"], m["bound"]
            sets = [[r[name]["value"] for r in results[w][s]] for s in (0, 1)]
            a, _ = spread_row(name, "A", sets[0], bound)
            b, _ = spread_row(name, "B", sets[1], bound)
            _, spread = spread_row(name, "A+B", sets[0] + sets[1], bound)
            # The spread of set-up time is reported but not bounded.
            if name != "setup_s" and spread > bound:
                ok = False
            if a is None or b is None:
                ok = False
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok = ok and agree
            print(f"{'':24} A->B {worse:+.3f} of A's median: "
                  f"{'sets agree' if agree else 'SETS DISAGREE'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="two interleaved sets of runs per workload")
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per set in --steadiness mode")
    ap.add_argument("--workloads",
                    help="comma-separated, for --steadiness (default: "
                         "BENCHMARK.json's)")
    args = ap.parse_args()
    try:
        if args.steadiness:
            build()
            workloads = (args.workloads.split(",") if args.workloads else
                         [w["name"] for w in bench_spec()["workloads"]])
            return steadiness(args.runs, args.seconds, workloads)
        if not args.workload:
            ap.error("--workload is required")
        return run_once(args.workload, args.seed, args.seconds, args.trace)
    except Refused as e:
        log(f"refused: {e}")
        return 2
    except subprocess.TimeoutExpired as e:
        log(f"refused: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
