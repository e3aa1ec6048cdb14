"""One workload in one fresh process: set up, run whole rounds for the given
time, and write the raw result as JSON.  bench/run.py starts this process;
run it directly only to debug a workload:

    PYTHONPATH=src python3 bench/worker.py --workload lab --seed 1 \
        --seconds 10 --trace 0 --out result.json
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def run_round(ops, result, tracer=None):
    """Run one round, recording each operation's latency, samples, warnings
    and failures in `result`."""
    t_round = time.perf_counter()
    for label, op in ops:
        if tracer is not None:
            tracer.op = result["attempted"]
        result["attempted"] += 1
        t = time.perf_counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                samples = op()
        except workloads.CheckFailed as exc:
            result["failed"] += 1
            result["failures"].append(f"{label}: {exc}")
            samples, caught = [], []
        except Exception:  # a crash is a failed operation, never dropped
            result["failed"] += 1
            result["failures"].append(f"{label}: {traceback.format_exc()}")
            samples, caught = [], []
        result["latencies"].append(time.perf_counter() - t)
        for key, value in samples:
            result["samples"].setdefault(key, []).append(value)
        for w in caught:
            name = w.category.__name__
            result["warnings"][name] = result["warnings"].get(name, 0) + 1
    result["round_s"].append(time.perf_counter() - t_round)


def run_loop(rounds, seconds, result, traced=None, switch=None, tracer=None):
    """Run whole rounds until the next one would end more than half a round
    past `seconds`.  With `traced`, every round runs twice in a row, untraced
    and traced (`switch` turns tracing on and off), so the overhead compares
    the same operations at nearly the same time; the order alternates, so
    the second pass's warmer caches favour neither side."""
    t_begin = time.perf_counter()
    r = 0
    while True:
        passes = [(result, False)] + ([(traced, True)] if traced else [])
        for res, on in (passes if r % 2 == 0 else passes[::-1]):
            if on:
                switch[0]()
            run_round(rounds[r % len(rounds)], res, tracer if on else None)
            if on:
                switch[1]()
        r += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed + 0.5 * elapsed / r > seconds:
            return


def new_result():
    return {"attempted": 0, "failed": 0, "failures": [], "latencies": [],
            "samples": {}, "warnings": {}, "round_s": []}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("search", "lab", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.dirname(os.path.abspath(args.out))

    runner = None
    if args.workload == "search":
        rounds = workloads.setup_search(args.seed)
    elif args.workload == "lab":
        rounds = workloads.setup_lab(args.seed)
    else:
        runner = workloads.CliRunner(root, dict(os.environ))
        rounds = workloads.setup_cli(args.seed, runner)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(report, fh)
        return 0

    result = new_result()
    if not args.trace:
        run_loop(rounds, args.seconds, result)
    else:
        traced = new_result()
        if runner is None:
            from tracing import Tracer

            tracer = Tracer()
            run_loop(rounds, args.seconds, result, traced,
                     (tracer.install, tracer.uninstall), tracer)
            report["spans"] = tracer.spans
        else:
            trace_dir = os.path.join(out_dir, "cli-spans")
            os.makedirs(trace_dir, exist_ok=True)
            run_loop(rounds, args.seconds, result, traced,
                     (lambda: setattr(runner, "trace_dir", trace_dir),
                      lambda: setattr(runner, "trace_dir", None)))
            report["spans"] = merge_cli_spans(runner.trace_files, traced)
        report["traced"] = traced
    report["untraced"] = result
    if runner is not None:
        res = runner.run(workloads.KNOWN_DEFECT)
        err = res.stderr.decode(errors="replace")
        report["known_defect"] = {
            "args": list(workloads.KNOWN_DEFECT), "exit": res.returncode,
            "traceback": "Traceback" in err,
            "last_line": err.strip().splitlines()[-1] if err.strip() else ""}
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


def merge_cli_spans(paths, traced):
    """Concatenate the span lists the traced CLI children wrote, re-indexing
    parents, and add their recorded warnings to the traced result."""
    spans = []
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            continue
        base = len(spans)
        for sp in data["spans"]:
            sp = list(sp)
            if sp[3] >= 0:
                sp[3] += base
            spans.append(sp)
        for name, n in data.get("warnings", {}).items():
            traced["warnings"][name] = traced["warnings"].get(name, 0) + n
        os.remove(path)
    return spans


if __name__ == "__main__":
    sys.exit(main())
