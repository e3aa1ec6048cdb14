"""Summarise and compare benchmark runs recorded in .bench_out/runs.jsonl.

    python3 bench/compare.py spread RUNS.jsonl
        per workload and metric: median, quartiles and the quartile spread
        as a share of the median, against a third of the metric's bound

    python3 bench/compare.py compare BASE.jsonl NEW.jsonl
        per workload and metric: both medians and the change, flagged when
        it is worse than the metric's bound

Both refuse to mix runs whose environment fingerprints differ (CPU count,
Python, numpy and scipy versions, thread settings).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def check_fingerprints(*groups):
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for g in groups for r in g}
    if len(prints) > 1:
        sys.exit("refusing to compare runs with different fingerprints:\n  "
                 + "\n  ".join(sorted(prints)))


def by_workload(records):
    """Untraced runs grouped by workload."""
    out = {}
    for r in records:
        if r["trace"] == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def spread(path):
    records = load(path)
    check_fingerprints(records)
    metrics = spec()
    ok = True
    for wl, runs in sorted(by_workload(records).items()):
        bad = [r["seed"] for r in runs if not r["correct"]]
        print(f"{wl}: {len(runs)} runs, seeds "
              f"{sorted(r['seed'] for r in runs)}, incorrect {bad}")
        ok = ok and not bad
        for name, m in metrics.items():
            vals = values(runs, name)
            if len(vals) < 4 or "bound" not in m:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            limit = m["bound"] / 3.0
            flag = "" if rel < limit or name == "setup_s" else "  WIDE"
            ok = ok and not flag
            print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {rel:8.4f}  (< {limit:.4f}){flag}")
    return 0 if ok else 1


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    check_fingerprints(base, new)
    metrics = spec()
    worse = False
    nb, nn = by_workload(base), by_workload(new)
    for wl in sorted(set(nb) & set(nn)):
        print(f"{wl}: {len(nb[wl])} base runs, {len(nn[wl])} new runs")
        for name, m in metrics.items():
            vb, vn = values(nb[wl], name), values(nn[wl], name)
            if not vb or not vn or "bound" not in m:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            change = (mn - mb) / abs(mb) if mb else 0.0
            loss = change if m["better"] == "lower" else -change
            flag = "  WORSE" if loss > m["bound"] else ""
            worse = worse or bool(flag)
            print(f"  {name:18s} base {mb:12.6g}  new {mn:12.6g}  "
                  f"change {change:+8.4f}  (bound {m['bound']}){flag}")
    return 1 if worse else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
