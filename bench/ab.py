#!/usr/bin/env python3
"""Alternating A/B pairs: a parent git revision against the working tree.

    python3 bench/ab.py --parent HEAD --pairs 10 --workload hot_read [-o AB.json]
    python3 bench/ab.py --parent HEAD~1 --pairs 5 --bench bench_storage \\
        --filter 'BM_ColdStart.*/262144$' --min-time 1 [-o AB.json]

The parent side is `--parent` exported with `git archive` into
`--scratch` (default .ab/<sha> at the checkout root), so the repository
gains no worktree and the export is reused by later runs. The change
side is the working tree, built where its own tools build it. Both sides
are built before the first pair.

Pair i runs one process per side, the parent first on odd pairs and the
change first on even ones, so drift over the run hits both alike.
A pair runs either a bench_e2e workload, through each side's own
bench/e2e/run.py with `--seed i --seconds S --trace 0`, or the Google
Benchmarks of one binary whose names match `--filter`, one benchmark
family (the name up to its first '/') per process. A Google Benchmark
metric is `<benchmark>.real_time_<unit>` or `<benchmark>.<counter>`.

For each metric measured on both sides it prints both medians, both
sides' quartiles, the parent's IQR and how many pairs the change won
(lower is better unless BENCHMARK.json declares otherwise, or the name
says speedup, _per_s or rate). `-o` writes the same as JSON, with every
value, the machine's core count and CPU model, and the steal share over
the whole run. The statistics helpers are bench/e2e/run.py's.
"""

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run_py():
    spec = importlib.util.spec_from_file_location("e2e_run", ROOT / "bench" / "e2e" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_run_py()


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(rev, scratch):
    """The parent revision's tree under `scratch`; exported once per sha."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = Path(scratch) if scratch else ROOT / ".ab" / sha[:12]
    stamp = tree / ".ab_sha"
    if stamp.is_file() and stamp.read_text().strip() == sha:
        return sha, tree
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab.py: git archive {sha} failed")
    stamp.write_text(sha + "\n")
    return sha, tree


def build_bench(tree, binary):
    """Builds one Google Benchmark binary of `tree` into tree/build-ab."""
    build = tree / "build-ab"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(tree), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release",
              "-DSARGUS_BUILD_TESTS=OFF", "-DSARGUS_BUILD_BENCHMARKS=ON"],
             ["cmake", "--build", str(build), "--target", binary, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit(f"ab.py: building {binary} in {tree} failed")
    return build / "bench" / binary


def better_of(name, declared):
    base = name.rsplit(".", 1)[-1]
    if name in declared:
        return declared[name]["better"]
    return "higher" if re.search(r"speedup|_per_s|rate$", base) else "lower"


class E2eSide:
    def __init__(self, tree, workload, seconds):
        self.tree, self.workload, self.seconds = tree, workload, seconds

    def prepare(self):
        # Build through the side's own run.py, so no pair pays for it.
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, 'bench/e2e'); import run; run.build()"],
                       cwd=self.tree, check=True, stdout=sys.stderr)

    def run(self, pair):
        proc = subprocess.run(
            [sys.executable, str(self.tree / "bench" / "e2e" / "run.py"),
             "--workload", self.workload, "--seed", str(pair),
             "--seconds", str(self.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        # A wrong decision exits 1 but still reports; anything else is fatal.
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            sys.exit(f"ab.py: {self.tree} {self.workload} pair {pair} exited "
                     f"{proc.returncode}")
        result = json.loads(lines[-1])
        values = {k: v for k, (v, _) in RUN.measured(proc.stdout, self.workload).items()}
        return values, {"correct": result["correct"], "failed": result["failed"]}


class BenchSide:
    def __init__(self, tree, binary, pattern, min_time):
        self.tree, self.binary, self.pattern, self.min_time = tree, binary, pattern, min_time
        self.path = None
        self.families = []

    def prepare(self):
        self.path = build_bench(self.tree, self.binary)
        listed = subprocess.run([str(self.path), "--benchmark_list_tests=true",
                                 f"--benchmark_filter={self.pattern}"],
                                stdout=subprocess.PIPE, text=True, check=True)
        groups = {}
        for name in listed.stdout.split():
            groups.setdefault(name.split("/")[0], []).append(name)
        self.families = list(groups.values())

    def run(self, pair):
        values = {}
        for names in self.families:
            pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"
            proc = subprocess.run(
                [str(self.path), f"--benchmark_filter={pattern}",
                 f"--benchmark_min_time={self.min_time}", "--benchmark_format=json"],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"ab.py: {self.path} exited {proc.returncode}")
            for b in json.loads(proc.stdout)["benchmarks"]:
                if b.get("run_type") == "aggregate":
                    continue
                name = b["name"]
                values[f"{name}.real_time_{b['time_unit']}"] = b["real_time"]
                for key, v in b.items():
                    if isinstance(v, (int, float)) and key not in (
                            "real_time", "cpu_time", "iterations", "repetitions",
                            "repetition_index", "threads", "family_index",
                            "per_family_instance_index"):
                        values[f"{name}.{key}"] = v
        return values, {"correct": True, "failed": 0}


def summarize(name, parent, change, better):
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if better == "lower" else c > p))
    return {"better": better, "parent": parent, "change": change,
            "parent_median": statistics.median(parent), "change_median": statistics.median(change),
            "parent_q1": p_q1, "parent_q3": p_q3, "parent_iqr": p_q3 - p_q1,
            "change_q1": c_q1, "change_q3": c_q3, "wins": wins, "pairs": len(parent)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of side A")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", help="where the parent tree is exported")
    parser.add_argument("--workload", help="a bench_e2e workload")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--bench", help="a Google Benchmark binary, e.g. bench_storage")
    parser.add_argument("--filter", default=".", help="--benchmark_filter regex")
    parser.add_argument("--min-time", default="1", help="--benchmark_min_time")
    parser.add_argument("-o", dest="out")
    args = parser.parse_args()
    if (args.workload is None) == (args.bench is None):
        parser.error("give exactly one of --workload and --bench")
    if args.pairs < 2:
        parser.error("--pairs needs at least 2")

    sha, parent_tree = export_parent(args.parent, args.scratch)
    if args.workload:
        make = lambda tree: E2eSide(tree, args.workload, args.seconds)
    else:
        make = lambda tree: BenchSide(tree, args.bench, args.filter, args.min_time)
    sides = {"parent": make(parent_tree), "change": make(ROOT)}
    for side in sides.values():
        side.prepare()

    runs = {"parent": [], "change": []}
    checks = {"parent": [], "change": []}
    steal0, total0 = RUN.cpu_jiffies()
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for who in order:
            values, check = sides[who].run(pair)
            runs[who].append(values)
            checks[who].append(check)
        print(f"ab.py: pair {pair} done ({order[0]} first)", file=sys.stderr)
    steal1, total1 = RUN.cpu_jiffies()

    declared = {m["name"]: m for m in RUN.load_spec()["per_layer"] + RUN.load_spec()["end_to_end"]}
    metrics = {}
    for name in runs["parent"][0]:
        if all(name in r for r in runs["parent"] + runs["change"]):
            metrics[name] = summarize(name, [r[name] for r in runs["parent"]],
                                      [r[name] for r in runs["change"]],
                                      better_of(name, declared))
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    # The command that reproduces the numbers: where the parent tree and
    # the JSON went does not change them.
    argv, rest = [], iter(sys.argv[1:])
    for a in rest:
        if a in ("--scratch", "-o"):
            next(rest, None)
        elif not a.startswith(("--scratch=", "-o=")):
            argv.append(a if re.fullmatch(r"[\w./=:-]+", a) else "'" + a + "'")
    command = "python3 bench/ab.py " + " ".join(argv)
    report = {
        "command": command,
        "parent": {"rev": args.parent, "sha": sha},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD")},
        "machine": {"nproc": os.cpu_count(), "cpu_model": model,
                    "steal_share": (steal1 - steal0) / max(1, total1 - total0)},
        "pairs": args.pairs,
        "subject": ({"workload": args.workload, "seconds": float(args.seconds)} if args.workload
                    else {"bench": args.bench, "filter": args.filter,
                          "min_time": float(args.min_time)}),
        "checks": {who: {"all_correct": all(c["correct"] for c in cs),
                         "failed_ops": sum(c["failed"] for c in cs)}
                   for who, cs in checks.items()},
        "metrics": metrics,
    }

    print(f"{'metric':<58} {'parent':>11} {'change':>11} {'p.q1':>10} {'p.q3':>10}"
          f" {'c.q1':>10} {'c.q3':>10} {'p.IQR':>9}  wins")
    for name, m in metrics.items():
        print(f"{name:<58} {m['parent_median']:>11.5g} {m['change_median']:>11.5g}"
              f" {m['parent_q1']:>10.4g} {m['parent_q3']:>10.4g} {m['change_q1']:>10.4g}"
              f" {m['change_q3']:>10.4g} {m['parent_iqr']:>9.3g}  {m['wins']}/{m['pairs']}")
    for who, c in report["checks"].items():
        print(f"{who}: all runs correct: {c['all_correct']}, failed operations: {c['failed_ops']}")
    print(f"cores: {os.cpu_count()}, cpu: {model}, steal share: "
          f"{report['machine']['steal_share']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    sys.exit(0 if all(c["all_correct"] and c["failed_ops"] == 0
                      for c in report["checks"].values()) else 1)


if __name__ == "__main__":
    main()
