"""Command-line front end: degree estimates, semi-norms, pair distances,
named golden-value experiments, parameter sweeps, and distance optimization.

Exit codes: 0 = all declared tolerances met, 1 = a numerical check failed,
2 = usage error.  CSV output is byte-stable for fixed seed and flags
(LF line endings, 17 significant digits).
"""

import argparse
import sys
import warnings

import numpy as np

from . import gallery, grid, sphere2
from .errors import IndexOutOfRange, ParameterError
from .grid import SobolevIndex
from .sphere2 import Sphere2Map


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "True" if x else "False"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_table(rows, path=None, sep=","):
    if not rows:
        return ""
    cols = list(rows[0])
    lines = [sep.join(cols)]
    lines += [sep.join(_fmt(r.get(c, "")) for c in cols) for r in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


def _key_values(items, where):
    """{key: raw string} from `key=value` items; dashes in keys read as
    underscores."""
    out = {}
    for item in items:
        key, eq, raw = item.partition("=")
        if not eq or not key.strip():
            raise ParameterError(f"bad key=value item '{item}' in '{where}'")
        out[key.strip().replace("-", "_")] = raw
    return out


def split_spec(spec):
    """`name:key=value,key=value` -> (name, {key: raw string})."""
    name, _, blob = spec.partition(":")
    return name.strip(), _key_values(blob.split(",") if blob else [], spec)


def parse_map_spec(spec):
    """A gallery map spec `name:key=value,...`, or a .csv path holding
    samples (theta_j, Re f, Im f) at theta_j = theta_0 + 2*pi*j/M."""
    if spec.endswith(".csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file is caught below
            data = np.loadtxt(spec, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] == 0 or data.shape[1] != 3:
            raise ParameterError(
                f"{spec}: need a header line and rows theta,re,im; got "
                f"{data.shape[0]} rows of {data.shape[1]} columns")
        ok = np.abs(data[:, 0] - data[0, 0] - grid.nodes(len(data))) <= 1e-9
        if not ok.all():  # a NaN theta is not ok either
            raise ParameterError(
                f"{spec}: rows theta,re,im need theta_j - theta_0 = 2*pi*j/M "
                f"within 1e-9; row j = {np.argmin(ok)} breaks it")
        return grid.from_samples(data[:, 1] + 1j * data[:, 2])
    name, params = split_spec(spec)
    return gallery.build_map(name, **params)


def cmd_degree(args):
    f = parse_map_spec(args.map)
    if isinstance(f, Sphere2Map):
        rows, estimates = [], [("kronecker", sphere2.degree_kronecker_s2)]
    else:
        w = grid.degree_winding(f)
        rows = [{"method": "winding", "value": float(w), "rounded": w}]
        estimates = [("kronecker", grid.degree_kronecker_s1),
                     ("fourier", grid.degree_fourier)]
    for method, estimate in estimates:
        value = estimate(f)
        rows.append({"method": method, "value": value,
                     "rounded": grid.round_degree(value)})
    sys.stdout.write(_write_table(rows, args.output, args.sep))
    return 0


def _norm_rows(f, g, index, method):
    from . import seminorms
    rows = []
    for m in seminorms.select_methods(index, method):
        res = seminorms.seminorm(f, index, m, g=g)
        row = {"method": m, "s": index.s, "p": index.p, "value": res.value}
        if m == "fourier_h_half":
            row["value_sq"] = res.value ** 2
        rows.append(row)
    return rows


def cmd_seminorm(args):
    f = parse_map_spec(args.map)
    index = SobolevIndex(args.s, args.p)
    rows = _norm_rows(f, None, index, args.method)
    sys.stdout.write(_write_table(rows, args.output, args.sep))
    return 0


def cmd_pair(args):
    name, params = split_spec(args.pair)
    pair = gallery.build_pair(name, **params)
    index = SobolevIndex(args.s, args.p)
    if isinstance(pair.f, Sphere2Map):
        if (args.s, args.p) != (1.0, 2.0) or args.method not in (None, "h1"):
            raise IndexOutOfRange(
                "S^2 pairs have only the H^1 distance: use --s 1 --p 2 and "
                f"no --method or h1 (got s={args.s:g}, p={args.p:g}, "
                f"method={args.method})")
        val = sphere2.h1_distance(pair.f, pair.g)
        rows = [{"method": "h1_quadrature", "s": args.s, "p": args.p,
                 "value_sq": val ** 2, "value": val}]
    else:
        rows = _norm_rows(pair.f, pair.g, index, args.method)
        for r in rows:  # the claim holds at one index and method only
            at = (index.s, index.p, r["method"]) == pair.claim_index
            r["claim"] = pair.claim if at else ""
    sys.stdout.write(_write_table(rows, args.output, args.sep))
    return 0


def cmd_experiment(args):
    from . import experiments
    if args.name == "all" and args.param:
        raise ParameterError("--param needs one named experiment, not 'all'")
    names = (list(experiments.REGISTRY) if args.name == "all"
             else [args.name])
    params = _key_values(args.param or [], "--param")
    all_ok = True
    for name in names:
        result = experiments.run_experiment(name, **params)
        text = _write_table(
            result.rows,
            args.output if len(names) == 1 else
            (f"{args.output}.{name}.csv" if args.output else None),
            args.sep)
        sys.stdout.write(text)
        verdict = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{name}: {verdict} ({result.summary})\n")
        if not result.passed:
            all_ok = False
            for row in result.rows:
                if not row.get("pass", True):
                    sys.stdout.write("failing row: " + ",".join(
                        _fmt(v) for v in row.values()) + "\n")
    return 0 if all_ok else 1


_SWEEPS = {
    "product-shift": "product-shift-scaling",
    "multibump": "multibump-scaling",
    "oscillator": "oscillator-lb",
    "capacity": "capacity-decay",
    "bump": "eps-bump-critical",
    "deflation": "dist-w11-hausdorff",
}


def cmd_sweep(args):
    from . import experiments
    if args.name not in _SWEEPS:
        raise KeyError(f"unknown sweep '{args.name}'; known: "
                       f"{', '.join(sorted(_SWEEPS))}")
    params = {key: getattr(args, key) for key in ("d", "n", "eps", "s", "p")
              if getattr(args, key) is not None}
    result = experiments.run_experiment(_SWEEPS[args.name], **params)
    sys.stdout.write(_write_table(result.rows, args.output, args.sep))
    return 0 if result.passed else 1


def cmd_optimize(args):
    from . import optimize
    f = parse_map_spec(args.source)
    index = SobolevIndex(args.s, args.p)
    kwargs = dict(k=args.k, budget=args.budget, restarts=args.restarts,
                  seed=args.seed)
    if args.one_sided:
        report = optimize.estimate_point_to_class(
            f, args.to_class, index, **kwargs)
    else:
        report = optimize.estimate_inf_distance(
            f, args.to_class, index, **kwargs)
    rows = [{"iteration": i, "value": v}
            for i, v in enumerate(report.trace)]
    if args.output:
        _write_table(rows, args.output, args.sep)
    sys.stdout.write(_write_table([{
        "value": report.value, "target": report.target, "gap": report.gap,
        "runs": report.runs,
        "budget_exhausted": report.budget_exhausted}], None, args.sep))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spheremaps",
        description="Distances between homotopy classes of circle- and "
                    "sphere-valued maps: degrees, semi-norms, explicit "
                    "construction galleries, and golden-value experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the CSV table to this path")
        p.add_argument("--format", choices=("csv", "tsv"), default="csv")

    p = sub.add_parser("degree", help="three degree estimates for a map")
    p.add_argument("--map", required=True,
                   help="gallery spec name:key=value,... or a .csv file")
    common(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("seminorm", help="semi-norm of a single map")
    p.add_argument("--map", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method",
                   help="w1p | gagliardo | fourier | sup (default: all "
                        "applicable)")
    common(p)
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("pair", help="distance between a gallery pair")
    p.add_argument("--pair", required=True,
                   help="pair spec name:key=value,...")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method")
    common(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("experiment",
                       help="run a named golden-value experiment (or 'all')")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="override an experiment parameter")
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="parameter sweep emitting CSV rows")
    p.add_argument("name", help=" | ".join(sorted(_SWEEPS)))
    p.add_argument("--d")
    p.add_argument("--n")
    p.add_argument("--eps")
    p.add_argument("--s")
    p.add_argument("--p")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize",
                       help="estimate a class distance by L-BFGS-B descent")
    p.add_argument("--from", dest="source", required=True,
                   help="map spec fixing the starting class")
    p.add_argument("--to-class", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--budget", type=int, default=2000,
                   help="iteration cap of each descent")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--one-sided", action="store_true",
                   help="hold the source map fixed")
    common(p)
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.sep = "\t" if args.format == "tsv" else ","
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        sys.stderr.write(f"error: {msg}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
