#!/usr/bin/env python3
"""End-to-end benchmark of the overlay matching service.

Builds benchmark/service_bench (a standalone CMake project over ../src) into
build-benchmark/, runs each workload in a fresh process and prints every
metric by name with its unit. Standard library only.

  python3 benchmark/run.py                      # all workloads, end-to-end
  python3 benchmark/run.py --trace 1            # all workloads, per-layer,
                                                # Chrome traces in build-benchmark/
  python3 benchmark/run.py --smoke              # seconds-scale check of every path
  python3 benchmark/run.py --repeat 5 --out A.json
  python3 benchmark/run.py --diff A.json B.json # A = parent, B = change
  python3 benchmark/run.py --workload steady --seed 3 --seconds 45 --trace 0
                                                # one run; last line is JSON

See benchmark/README.md for the metrics, workloads and the A/B procedure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-benchmark"
BINARY = BUILD_DIR / "service_bench"
WORKLOADS = ["steady", "read-heavy"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def declaration():
    """BENCHMARK.json at the repository root: run length and metric bounds."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def jobs():
    return str(max(1, len(os.sched_getaffinity(0))))


def build():
    if not (ROOT / "src" / "serve" / "service_loop.hpp").is_file():
        fail("library sources (src/) not found next to benchmark/; "
             "run from a full checkout of the repository")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "service_bench", "-j", jobs()])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def run_one(workload, seed, seconds, trace, smoke=False, trace_out=None):
    """Runs the program once; returns (info lines, result dict, exit code)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        out = trace_out or BUILD_DIR / f"trace-{workload}-seed{seed}.json"
        cmd.append(f"--trace-out={out}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout)
        fail(f"{workload} printed no result (exit {proc.returncode})", 1)
    return lines[:-1], result, proc.returncode


def fail_frac(result):
    return result["failed"] / result["attempted"]


def print_metrics(result):
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':36s} {fail_frac(result):>16.6g} "
          f"({result['failed']} of {result['attempted']} checks)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    """{workload: [result, ...]} -> {workload: {metric: {...}}}."""
    out = {}
    for workload, results in runs.items():
        names = list(results[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "unit": results[0]["metrics"][name]["unit"]}
        summary["fail_frac"] = {"max": max(fail_frac(r) for r in results),
                                "unit": "fraction"}
        out[workload] = summary
    return out


def environment(info_lines):
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    for line in info_lines:
        for token in line.replace(",", " ").split():
            if token.startswith("hardware_concurrency="):
                env["hardware_concurrency"] = int(token.split("=", 1)[1])
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def run_sets(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    runs = {w: [] for w in workloads}
    info = []
    exit_code = 0
    # Round-robin over workloads so slow drift in the host spreads evenly.
    for rep in range(args.repeat):
        for w in workloads:
            seed = args.seed + rep
            started = time.monotonic()
            lines, result, code = run_one(w, seed, args.seconds, args.trace,
                                          args.smoke)
            info = info or lines
            exit_code = exit_code or code
            runs[w].append(result)
            print(f"\n{w} (seed {seed}, {time.monotonic() - started:.1f} s wall, "
                  f"correct={result['correct']})")
            for line in lines:
                print(f"  | {line}")
            print_metrics(result)
    summary = summarize(runs)
    if args.repeat > 1:
        print("\nmedians [q1 .. q3] over", args.repeat, "runs")
        for w, metrics in summary.items():
            print(f"{w}:")
            for name, s in metrics.items():
                if "q1" in s:
                    print(f"  {name:36s} {s['median']:>14.6g} "
                          f"[{s['q1']:.6g} .. {s['q3']:.6g}] {s['unit']}")
    doc = {"seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
           "repeat": args.repeat, "first_seed": args.seed,
           "env": environment(info), "summary": summary, "runs": runs}
    out = Path(args.out) if args.out else BUILD_DIR / "last-results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"\nresults written to {out}")
    return exit_code


def load_runs(paths):
    """Merges the runs of comma-separated result files: {workload: [...]}."""
    runs = {}
    for path in paths.split(","):
        with open(path) as f:
            for workload, results in json.load(f)["runs"].items():
                runs.setdefault(workload, []).extend(results)
    return runs


def diff(paths_a, paths_b, decl):
    """Compares parent results A with change results B. Per-layer metrics
    (traced results) carry no bound and get no verdict."""
    a, b = load_runs(paths_a), load_runs(paths_b)
    regressions = 0
    print(f"{'workload':11s} {'metric':34s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        if workload not in a or workload not in b:
            continue
        ra, rb = a[workload], b[workload]
        for metric in decl["end_to_end"] + decl["per_layer"]:
            name, bound = metric["name"], metric.get("bound")
            lower = metric["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ma, mb = qa[1], qb[1]
            spread = max((qa[2] - qa[0]) / ma if ma else 0.0,
                         (qb[2] - qb[0]) / mb if mb else 0.0)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower else -change
            b_all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            b_all_worse = (min(vb) > max(va)) if lower else (max(vb) < min(va))
            if bound is None:
                verdict = "(per-layer, no bound)"
            elif worse > bound and (spread <= bound or b_all_worse):
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound and not b_all_better:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "ok"
            shown = "—" if bound is None else f"{bound:.1%}"
            print(f"{workload:11s} {name:34s} {ma:>12.5g} {mb:>12.5g} "
                  f"{change:>+8.1%} {spread:>7.1%} {shown:>6s}  {verdict}")
        fa = max(fail_frac(r) for r in ra)
        fb = max(fail_frac(r) for r in rb)
        if fb > fa:
            regressions += 1
            print(f"{workload:11s} {'fail_frac':34s} {fa:>12.5g} {fb:>12.5g}"
                  "                          REGRESSION")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main():
    decl = declaration()
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload once and print its JSON result last")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=decl["run_seconds"],
                   help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1 = per-layer metrics and a Chrome trace file")
    p.add_argument("--trace-out", help="trace file path (with --workload)")
    p.add_argument("--smoke", action="store_true",
                   help="n/10, 100 open-loop bursts, traced: a fast check of "
                        "every correctness check and the trace writer")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload (seeds seed, seed+1, ...)")
    p.add_argument("--out", help="results file (default build-benchmark/"
                                 "last-results.json)")
    p.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                   help="compare parent results A with change results B "
                        "against the bounds (comma-separated files merge)")
    args = p.parse_args()

    if args.diff:
        sys.exit(diff(args.diff[0], args.diff[1], decl))
    if args.smoke:
        args.trace = 1
    if args.repeat < 1:
        fail("--repeat must be at least 1")
    build()

    if args.workload and args.repeat == 1 and not args.out:
        lines, result, code = run_one(args.workload, args.seed, args.seconds,
                                      args.trace, args.smoke, args.trace_out)
        for line in lines:
            print(line)
        print_metrics(result)
        print(json.dumps(result))
        sys.exit(code)
    sys.exit(run_sets(args))


if __name__ == "__main__":
    main()
