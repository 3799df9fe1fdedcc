#!/usr/bin/env python3
"""Builds bench_e2e from the checkout it sits in, then runs it.

    python3 bench/e2e/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 bench/e2e/run.py --rounds 10 [--workload W] [-o SUMMARY.json]

The build goes to .bench_build at the checkout root, with its output on
stderr. stdout carries the benchmark's own lines, ending with its JSON
result. The metric names and units in that result are checked against
BENCHMARK.json; a disagreement exits non-zero. `--workload all` runs the
four workloads one after another, each in its own process.

`--rounds N` runs every workload (or the one named) N times untraced at
BENCHMARK.json's run_seconds, round r with --seed r, and prints for each
metric a run measured (the end-to-end ones and the untraced op.*
timings among them) the median, the quartiles and the spread
(IQR / median). The odd and even rounds are also compared as two
interleaved sets (A/B/A/B): "shift" is how much worse set B's median is
than set A's. An end-to-end metric is "ok" when its spread is within a
third of its bound and its shift within the bound, "noisy" when both are
within the bound, "WIDE" otherwise; a WIDE metric or a failed operation
makes the exit code 1. `-o` also writes the summary, with every run's
values and the machine's core count, CPU model and steal share, as JSON
(bench/e2e/baseline.json is made this way).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["hot_read", "churn_write", "batch_fanout", "sharded_read"]


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no sargus sources at {ROOT}; cannot build bench_e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building bench_e2e failed")
    return BUILD / "bench_e2e"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_metrics(spec, result, trace):
    """Problems with `result`'s metric set against BENCHMARK.json."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in want]
    problems += [f"{n} in {got[n]}, declared {u}" for n, u in want.items()
                 if n in got and got[n] != u]
    return problems


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs bench_e2e; returns (exit code, stdout, problems)."""
    run = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", trace,
         "--work-dir", str(BUILD / "e2e")],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    problems = []
    for line in lines:
        if line.startswith("{"):
            problems += check_metrics(spec, json.loads(line), trace == "1")
    if run.returncode == 0 and not any(l.startswith("{") for l in lines):
        problems.append("no result line")
    return run.returncode, run.stdout, problems


def cpu_jiffies():
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[7], sum(v)


def measured(out, workload):
    """The "workload metric value unit" lines of a run, as {metric: (value, unit)}."""
    values = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload and not parts[1].endswith("_samples"):
            values[parts[1]] = (float(parts[2]), parts[3])
    return values


def rounds(binary, spec, n, workloads, summary_path):
    results = {w: [] for w in workloads}
    failed = {w: 0 for w in workloads}
    steal0, total0 = cpu_jiffies()
    for r in range(1, n + 1):
        for w in workloads:
            code, out, problems = run_once(binary, spec, w, r, spec["run_seconds"], "0")
            if code != 0 or problems:
                sys.exit(f"run.py: round {r} {w} exited {code}: " + "; ".join(problems))
            failed[w] += json.loads(out.splitlines()[-1])["failed"]
            results[w].append(measured(out, w))
            print(f"run.py: round {r} {w} done", file=sys.stderr)
    steal1, total1 = cpu_jiffies()

    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    summary = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": model,
                    "steal_share": (steal1 - steal0) / max(1, total1 - total0)},
        "rounds": n,
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    declared = {m["name"]: m for m in spec["per_layer"] + spec["end_to_end"]}
    print(f"{'workload':<13} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'shift':>7} {'bound':>6}  verdict")
    wide = 0
    for w, runs in results.items():
        entry = {"runs": len(runs), "failed_ops": failed[w], "metrics": {}}
        for name, (_, unit) in runs[0].items():
            m = declared[name]
            vals = [r[name][0] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ma = statistics.median(vals[0::2])
            mb = statistics.median(vals[1::2])
            worse = mb - ma if m["better"] == "lower" else ma - mb
            shift = worse / ma if ma else 0.0
            # Only the end-to-end metrics have a bound to be judged by.
            bound = m.get("bound")
            verdict = ""
            if bound is not None and (spread > bound or shift > bound):
                verdict = "WIDE"
                wide += 1
            elif bound is not None:
                verdict = "ok" if spread <= bound / 3 else "noisy"
            entry["metrics"][name] = {"unit": unit, "values": vals, "median": med,
                                      "q1": q1, "q3": q3, "iqr_over_median": spread,
                                      "ab_shift": shift, "bound": bound}
            print(f"{w:<13} {name:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>7.3f} {shift:>7.3f} {bound if bound is not None else '-':>6}"
                  f"  {verdict}")
        summary["workloads"][w] = entry
        if failed[w]:
            print(f"{w}: {failed[w]} failed operations")
            wide += 1
    print(f"steal share over these runs: {summary['machine']['steal_share']:.4f}")
    if summary_path:
        with open(summary_path, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 1 if wide else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--rounds", type=int)
    parser.add_argument("-o", dest="summary")
    args = parser.parse_args()
    if args.rounds is None and args.workload is None:
        parser.error("--workload or --rounds is required")
    if args.rounds is not None and args.rounds < 2:
        parser.error("--rounds needs at least 2 rounds")

    binary = build()
    spec = load_spec()
    if args.rounds is not None:
        workloads = WORKLOADS if args.workload in (None, "all") else [args.workload]
        sys.exit(rounds(binary, spec, args.rounds, workloads, args.summary))
    code, out, problems = run_once(binary, spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    if problems:
        sys.stderr.write("run.py: result disagrees with BENCHMARK.json: "
                         + "; ".join(problems) + "\n")
        sys.exit(3)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
