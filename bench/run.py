"""spheremaps benchmark: one workload per call, from the repository root.

    python3 bench/run.py --workload {search,lab,cli-cold} --seed N \
        --seconds S --trace {0,1}

The workload runs in a fresh worker process (bench/worker.py), so its peak
memory is its own; set-up is timed in that process and in four more fresh
set-up-only processes, and the median is reported.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
the worker runs every round twice in a row, untraced and traced, and the
JSON holds the per-layer metrics and the tracing overhead.  Lines before it
give every metric with its unit and sample count.  Each run is also appended, with the
environment fingerprint, to .bench_out/runs.jsonl; bench/compare.py reads it.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the worker included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = 1  # BLAS/OpenMP threads per process; at most nproc


def metric_units():
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def fingerprint(env):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "threads": {k: env[k] for k in THREAD_VARS},
    }


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(min(THREADS, len(os.sched_getaffinity(0))))
    for k in THREAD_VARS:
        env[k] = threads
    return env


def run_worker(args, env, extra, timeout):
    path = os.path.join(OUT, f"worker-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", path, *extra]
    res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if res.returncode != 0:
        sys.stderr.write(res.stderr.decode(errors="replace"))
        raise SystemExit(f"worker exited {res.returncode}")
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    return report


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(report, setup):
    res = report["untraced"]
    lat = res["latencies"]
    t, pct = tail(lat)
    # every round runs the same mix, so the median round time is the
    # throughput estimate least moved by a burst of load on the machine
    per_round = res["attempted"] / len(res["round_s"])
    metrics = {
        "ops_per_s": (per_round / statistics.median(res["round_s"]),
                      res["attempted"]),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
        "latency_p50_s": (statistics.median(lat), len(lat)),
        "latency_tail_s": (t, len(lat)),
    }
    for key, vals in res["samples"].items():
        metrics[key] = (statistics.median(vals), len(vals))
    return metrics, pct


def import_probes(env):
    """cli.import_s: median of three fresh interpreters importing
    spheremaps.cli; cli.import_scipy_optimize_s from -X importtime."""
    code = ("import time; t = time.perf_counter(); import spheremaps.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
        times.append(float(res.stdout.strip()))
    res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import spheremaps.cli"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    opt_us = 0
    for line in res.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.optimize":
            opt_us = int(re.sub(r"\D", "", parts[1]))
    return {"cli.import_s": statistics.median(times),
            "cli.import_scipy_optimize_s": opt_us / 1e6}


def per_layer(report, env):
    sys.path.insert(0, HERE)
    from tracing import layer_metrics

    # each round ran untraced and traced back to back, in alternating order
    un, tr = report["untraced"], report["traced"]
    overhead = statistics.median(
        t / u for t, u in zip(tr["round_s"], un["round_s"]))
    extra = import_probes(env)
    extra["sphere2.pole_warnings"] = tr["warnings"].get("PoleSingularity", 0)
    extra["trace.overhead_ratio"] = overhead
    return layer_metrics(report["spans"], extra)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("search", "lab", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spheremaps", "cli.py")):
        sys.stderr.write("error: no spheremaps sources under src/; run from "
                         "a checkout of the repository\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    t_start = time.perf_counter()
    setup = [run_worker(args, env, ["--setup-only"], 60)["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    report = run_worker(args, env, [], 90 + 2 * args.seconds)
    setup.append(report["setup_s"])

    runs = [report["untraced"]] + ([report["traced"]] if args.trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for msg in r["failures"]:
            sys.stderr.write(f"FAILED {msg}\n")
    e2e, pct = end_to_end(report, setup)
    e2e_units, layer_units = metric_units()
    fp = fingerprint(env)
    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"# fingerprint {json.dumps(fp, sort_keys=True)}")
    print(f"# attempted {attempted} failed {failed} "
          f"fail_ratio {failed / max(attempted, 1):.6g}")
    if "known_defect" in report:
        kd = report["known_defect"]
        print(f"# known defect `{' '.join(kd['args'])}`: exit {kd['exit']}, "
              f"traceback {kd['traceback']}, {kd['last_line']}")
    if report["untraced"]["warnings"]:
        print(f"# warnings {json.dumps(report['untraced']['warnings'])}")
    for key, unit in e2e_units.items():
        value, n = e2e.get(key, (math.nan, 0))
        note = f" (p{pct:.1f})" if key == "latency_tail_s" else ""
        print(f"{key:24s} {value:14.6g} {unit:6s} n={n}{note}")
    if args.trace:
        layers = per_layer(report, env)
        print(f"# traced spans {len(report['spans'])}")
        for key in layer_units:
            print(f"{key:34s} {layers[key]:14.6g}")
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "attrs"], "spans": report["spans"]}, fh)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": e2e.get(k, (math.nan, 0))[0], "unit": u}
                   for k, u in e2e_units.items()}
    correct = failed == 0 and attempted > 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics,
              "wall_s": time.perf_counter() - t_start}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
