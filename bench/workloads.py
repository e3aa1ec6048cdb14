"""The three benchmark workloads: search, lab and cli-cold.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operations come in rounds.  A round holds a
fixed sequence of operation kinds and sizes; the seed draws the values that
do not change an operation's cost (degrees, signs, random coefficients).
Runs execute whole rounds only, so every run sees the same mix whatever its
length or seed.

An operation is a callable returning a list of (metric, value) samples; it
raises CheckFailed when an output disagrees with the paper's closed forms.
"""

import math
import os
import subprocess
import sys

PI = math.pi

# search: the optimizer settings, fixed on every commit
SEARCH_BUDGET = 100
SEARCH_RESTARTS = 1
# W^{1,p} quality depends on |d1 - d2| and |d1 + d2| only, so the seed draws
# the class pair from the symmetry orbit of (1, 0): every draw is equally hard
W1P_PAIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))
ONE_SIDED_N = (6, 10, 16)

# lab: the ten registered experiments not marked slow
LAB_EXPERIMENTS = (
    "w11-zigzag", "dist-w11-hausdorff", "h-half-blaschke",
    "eps-bump-critical", "capacity-decay", "s2-energy", "s2-vo1",
    "multibump-scaling", "product-shift-scaling", "degree-stability")
LAB_GRIDS = (1024, 4096, 8192)
LAB_INDICES = ((0.5, 2.0), (0.5, 1.5), (1.0, 1.0), (1.0, 2.0))
LAB_NPHI = (128, 256)

# cli-cold: experiments and sweeps that finish in well under a second; each
# round runs all of them
CLI_EXPERIMENTS = ("w11-zigzag", "dist-w11-hausdorff", "s2-energy",
                   "s2-vo1", "multibump-scaling", "product-shift-scaling")
CLI_SWEEPS = ("deflation", "multibump", "product-shift")
# the one CLI call the benchmark expects to fail at the seed code: a
# seminorm of an S^2 map exits 1 with an AttributeError traceback where the
# CLI contract asks for exit 2; it runs once per cli-cold run, outside the mix
KNOWN_DEFECT = ("seminorm", "--map", "stereo:d=1", "--s", "1", "--p", "2")

ROUNDS_PLANNED = 12  # rounds of inputs made at set-up; runs cycle through them


class CheckFailed(Exception):
    pass


def check(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def close(value, expected, rel):
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


def w1p_reference(p, d1, d2):
    """2^{1/p+1} pi^{1/p-1} |d1 - d2|: the W^{1,p} class distance."""
    return 2.0 ** (1.0 / p + 1.0) * PI ** (1.0 / p - 1.0) * abs(d1 - d2)


# ---------------------------------------------------------------------------
# search

def _search_op(kind, f, d1, d2, p, seed):
    from spheremaps import optimize
    from spheremaps.grid import SobolevIndex

    def run():
        if kind == "one_sided":
            rep = optimize.estimate_point_to_class(
                f, d2, SobolevIndex(1.0, 1.0), budget=SEARCH_BUDGET,
                restarts=SEARCH_RESTARTS, seed=seed)
            ref, key = 2.0 * PI * abs(d1 - d2), "ratio_one_sided"
        elif kind == "h_half":
            rep = optimize.estimate_inf_distance(
                f, d2, SobolevIndex(0.5, 2.0), budget=SEARCH_BUDGET,
                restarts=SEARCH_RESTARTS, seed=seed)
            ref, key = 2.0 * PI * math.sqrt(abs(d1 - d2)), "ratio_h_half"
        else:
            rep = optimize.estimate_inf_distance(
                f, d2, SobolevIndex(1.0, p), budget=SEARCH_BUDGET,
                restarts=SEARCH_RESTARTS, seed=seed)
            ref = w1p_reference(p, d1, d2)
            key = "ratio_w1p_p" + format(p, "g").replace(".", "_")
        check(math.isfinite(rep.value), f"{kind} search value {rep.value}")
        return [(key, rep.value / ref)]

    return run


def setup_search(seed):
    import numpy as np
    from spheremaps import gallery, grid

    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(ROUNDS_PLANNED):
        ops = []
        for p in (1.0, 1.5, 2.0):
            d1, d2 = W1P_PAIRS[rng.integers(len(W1P_PAIRS))]
            f = gallery.random_map(d1, rng)
            ops.append((f"w1p_p{p:g}", _search_op(
                "w1p", f, d1, d2, p, int(rng.integers(2 ** 31)))))
        d2 = int(rng.choice((-1, 1)))
        ops.append(("h_half", _search_op(
            "h_half", grid.power_map(0), 0, d2, 2.0,
            int(rng.integers(2 ** 31)))))
        for n in ONE_SIDED_N:
            ops.append((f"one_sided_n{n}", _search_op(
                "one_sided", gallery.oscillator(1, int(n)), 1, 0, 1.0,
                int(rng.integers(2 ** 31)))))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# lab

def _experiment_op(name):
    from spheremaps import experiments

    def run():
        res = experiments.run_experiment(name)
        check(res.passed, f"experiment {name}: {res.summary}")
        return []

    return run


def _applicable_methods(s, p):
    if s == 1.0:
        return ("w1p_quadrature", "sup_norm")
    if (s, p) == (0.5, 2.0):
        return ("gagliardo_quadrature", "fourier_h_half", "sup_norm")
    return ("gagliardo_quadrature", "sup_norm")


def _lab_map(kind, d, m, seed):
    import numpy as np
    from spheremaps import gallery, grid

    if kind == "power":
        return grid.power_map(d, m)
    if kind == "random":
        return gallery.random_map(d, np.random.default_rng(seed), m=m)
    if kind == "oscillator":
        return gallery.oscillator(1, 10, m)
    if kind == "ramp":
        return gallery.ramp_map(d, m=m)
    if kind == "blaschke":
        return gallery.blaschke_pow(d, 0.1, m)
    if kind == "multibump":
        return gallery.multi_bump(d, 1, 32, m)
    raise KeyError(kind)


def _seminorm_op(kind, d, m, s, p, seed):
    from spheremaps import seminorms
    from spheremaps.grid import SobolevIndex

    def run():
        f = _lab_map(kind, d, m, seed)
        index = SobolevIndex(s, p)
        for method in _applicable_methods(s, p):
            v = seminorms.seminorm(f, index, method).value
            check(math.isfinite(v) and v >= 0.0, f"{method} on {kind}: {v}")
            if method == "sup_norm":
                check(close(v, 1.0, 1e-12), f"sup norm of {kind}: {v}")
            if method == "fourier_h_half" and kind == "power":
                check(close(v * v, 4.0 * PI ** 2 * abs(d), 1e-9),
                      f"H^1/2 of power_map({d}): {v * v}")
        return []

    return run


def _degree_op(kind, d, m, seed):
    from spheremaps import grid

    def run():
        f = _lab_map(kind, d, m, seed)
        w = grid.degree_winding(f)
        kr = grid.degree_kronecker_s1(f)
        fo = grid.degree_fourier(f)
        check(abs(kr - w) < 1e-2 and abs(fo - w) < 1e-2,
              f"degree estimators disagree on {kind}: {w}, {kr}, {fo}")
        return []

    return run


def _witness_op(kind, a, b, lam=0.0, with_p2=False):
    """Explicit class-distance witnesses with closed-form values.  The W^{1,2}
    ratio of a zigzag pair depends on its gap, so only gap-1 pairs report it."""
    from spheremaps import gallery, grid, seminorms

    def run():
        if kind == "zigzag":
            pair = gallery.zigzag_pair(a, b)
            v1 = seminorms.w1p_distance(pair.f, pair.g, 1.0)
            check(close(v1, 4.0 * abs(a - b), 1e-3),
                  f"zigzag W11 {v1} vs {4 * abs(a - b)}")
            out = [("ratio_w1p_p1", v1 / w1p_reference(1.0, a, b))]
            if with_p2:
                v2 = seminorms.w1p_distance(pair.f, pair.g, 2.0)
                check(math.isfinite(v2), f"zigzag W12 {v2}")
                out.append(("ratio_w1p_p2", v2 / w1p_reference(2.0, a, b)))
            return out
        if kind == "attainment":
            pair = gallery.attainment_pair(a, 1.5)
            v = seminorms.w1p_distance(pair.f, pair.g, 1.5)
            ref = w1p_reference(1.5, a, -a)
            check(close(v, ref, 1e-3), f"attainment pair {v} vs {ref}")
            return [("ratio_w1p_p1_5", v / ref)]
        if kind == "deflation":
            f = gallery.ramp_map(a)
            g = gallery.deflate_phase(f, a, lam)
            v = seminorms.w1p_distance(f, g, 1.0)
            check(close(v, 2.0 * PI * abs(a), 1e-3),
                  f"deflation {v} vs {2 * PI * abs(a)}")
            return [("ratio_one_sided", v / (2.0 * PI * abs(a)))]
        f = grid.power_map(a)
        v2 = seminorms.h_half_seminorm_sq(f)
        check(close(v2, 4.0 * PI ** 2 * abs(a), 1e-9),
              f"H^1/2 of power_map({a}): {v2}")
        return [("ratio_h_half", math.sqrt(v2) / (2.0 * PI * math.sqrt(abs(a))))]

    return run


def _sphere_op(kind, a, b, n_phi):
    from spheremaps import sphere2

    def run():
        if kind == "stereo":
            f = sphere2.stereographic_power(a, n_phi=n_phi)
            g = sphere2.stereographic_power(-a, n_phi=n_phi)
            expected = a
        elif kind == "suspension":
            f = sphere2.suspension(sphere2.default_suspension(a, b),
                                   n_phi=n_phi)
            g = sphere2.antipode(f)
            expected = b * (a % 2)
        else:
            pair = sphere2.vo1_pair(a, b, n_phi=n_phi)
            f, g, expected = pair.f, pair.g, None
        deg = sphere2.degree_kronecker_s2(f)
        en = sphere2.dirichlet_energy(f)
        h1 = sphere2.h1_distance(f, g)
        check(math.isfinite(deg) and math.isfinite(en) and math.isfinite(h1)
              and h1 > 0.0, f"{kind}: degree {deg}, energy {en}, h1 {h1}")
        if expected is not None:
            check(abs(deg - expected) < 1e-2, f"{kind} degree {deg} != {expected}")
        if kind == "stereo":
            check(close(en, 8.0 * PI * abs(a), 1e-3),
                  f"stereographic energy {en} vs {8 * PI * abs(a)}")
        return []

    return run


def _batch(runs):
    """One operation made of several small ones, so that no lab operation
    is a millisecond call whose latency is mostly noise."""
    def run():
        out = []
        for r in runs:
            out += r()
        return out

    return run


def setup_lab(seed):
    import numpy as np
    import spheremaps.experiments  # noqa: F401  (imports every layer)

    rng = np.random.default_rng(seed)

    def deg():
        return int(rng.choice((-2, -1, 1, 2, 3)))

    def sign():
        return int(rng.choice((-1, 1)))

    kinds = ("power", "random", "oscillator", "ramp", "blaschke")
    rounds = []
    for _ in range(ROUNDS_PLANNED):
        ops = [(f"experiment {name}", _experiment_op(name))
               for name in LAB_EXPERIMENTS]
        for j, (s, p) in enumerate(LAB_INDICES):
            ops.append((f"seminorm ({s:g},{p:g})", _batch([
                _seminorm_op(kinds[(j + k) % len(kinds)], deg(), m, s, p,
                             int(rng.integers(2 ** 31)))
                for k, m in enumerate(LAB_GRIDS)])))
        ops.append(("degree estimators", _batch([
            _degree_op(kind, deg(), m, int(rng.integers(2 ** 31)))
            for kind, m in (("random", 8192), ("oscillator", 4096),
                            ("blaschke", 1024), ("power", 8192),
                            ("multibump", 4096), ("ramp", 1024))])))
        a = deg()
        ops.append(("witnesses", _batch([
            _witness_op("zigzag", a, a - 1, with_p2=True),
            _witness_op("zigzag", a, a + 2),
            _witness_op("attainment", sign() * int(rng.integers(1, 3)), 0),
            _witness_op("deflation", int(rng.integers(1, 4)), 0,
                        float(rng.choice((0.1, 0.01)))),
            _witness_op("power", deg(), 0)])))
        for n_phi in LAB_NPHI:
            ops.append((f"s2 stereo {n_phi}", _sphere_op(
                "stereo", sign() * int(rng.integers(1, 3)), 0, n_phi)))
            ops.append((f"s2 suspension {n_phi}", _sphere_op(
                "suspension", int(rng.integers(1, 4)),
                sign() * int(rng.integers(1, 3)), n_phi)))
            ops.append((f"s2 vo1 {n_phi}", _sphere_op(
                "vo1", int(rng.integers(2, 5)), 1, n_phi)))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# cli-cold

def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and "," in ln]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]
            if len(ln.split(",")) == len(head)]


def _cli_round(rng):
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    d = pick((-3, -2, -1, 1, 2, 3))
    a = pick((-2, -1, 1, 2))
    lo = int(rng.integers(1, 3))
    calls = [
        (("degree", "--map", f"power:d={pick((-3, -2, -1, 1, 2, 3))}"), None),
        (("degree", "--map",
          f"blaschke:d={pick((-2, -1, 1, 2))},delta={pick((0.1, 0.2))}"),
         None),
        (("degree", "--map", f"stereo:d={pick((-2, -1, 1, 2))},nphi=64"),
         None),
        (("degree", "--map", f"suspension:k={int(rng.integers(1, 4))},"
          f"dh={pick((-1, 1, 2))},nphi=64"), None),
        (("seminorm", "--map", f"power:d={d}", "--s", "0.5", "--p", "2",
          "--method", "fourier"),
         ("ratio_h_half", 2.0 * PI * math.sqrt(abs(d)))),
        (("seminorm", "--map", "oscillator:d1=1,n=10", "--s", "1",
          "--p", pick(("1", "2"))), None),
        (("pair", "--pair", f"zigzag:d1={a},d2={a - 1}", "--s", "1",
          "--p", "1", "--method", "w1p"),
         ("ratio_w1p_p1", w1p_reference(1.0, a, a - 1))),
        (("pair", "--pair", f"zigzag:d1={a},d2={a - 1}", "--s", "1",
          "--p", "2", "--method", "w1p"),
         ("ratio_w1p_p2", w1p_reference(2.0, a, a - 1))),
        (("pair", "--pair", f"attainment:d1={a},p=1.5", "--s", "1",
          "--p", "1.5", "--method", "w1p"),
         ("ratio_w1p_p1_5", w1p_reference(1.5, a, -a))),
        (("pair", "--pair", f"plateau:d1={lo},d2={lo + 1}", "--s", "1",
          "--p", "1", "--method", "w1p"),
         ("ratio_one_sided", 2.0 * PI)),
        (("pair", "--pair", f"vo1:d1={int(rng.integers(2, 5))},d2=1,nphi=64",
          "--s", "1", "--p", "2"), None),
    ]
    calls += [(("experiment", name), None) for name in CLI_EXPERIMENTS]
    calls += [(("sweep", name, "--d", pick(("1,2", "1,3", "2,4"))), None)
              for name in CLI_SWEEPS]
    return calls


class CliRunner:
    """Runs one fresh `python -m spheremaps.cli` process per call and checks
    its exit code, its output and, for a repeated command, that stdout is
    byte-identical to the first time."""

    def __init__(self, root, env):
        self.root, self.env = root, env
        self.trace_dir = None  # set while a traced round runs
        self.seen = {}
        self.calls = 0
        self.trace_files = []

    def argv(self, args):
        if self.trace_dir is None:
            return [sys.executable, "-m", "spheremaps.cli", *args]
        path = os.path.join(self.trace_dir, f"call{self.calls}.json")
        self.trace_files.append(path)
        return [sys.executable,
                os.path.join(self.root, "bench", "trace_cli.py"), path,
                str(self.calls), *args]

    def run(self, args, timeout=120):
        argv = self.argv(args)
        self.calls += 1
        return subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, timeout=timeout)

    def op(self, args, ratio):
        def run():
            res = self.run(args)
            check(res.returncode == 0,
                  f"`{' '.join(args)}` exited {res.returncode}: "
                  f"{res.stderr.decode(errors='replace')[-300:]}")
            first = self.seen.setdefault(args, res.stdout)
            check(first == res.stdout, f"`{' '.join(args)}` stdout changed")
            text = res.stdout.decode()
            if args[0] == "experiment":
                check(f"{args[1]}: PASS" in text, f"{args[1]} did not PASS")
            rows = _csv_rows(text)
            check(bool(rows), f"`{' '.join(args)}` printed no rows")
            if ratio is None:
                return []
            key, ref = ratio
            value = float(rows[0]["value"])
            if key in ("ratio_w1p_p1", "ratio_w1p_p1_5", "ratio_one_sided"):
                check(close(value, ref, 1e-3), f"{key}: {value} vs {ref}")
            if key == "ratio_h_half":
                check(close(value * value, ref * ref, 1e-9),
                      f"H^1/2 squared {value * value} vs {ref * ref}")
            return [(key, value / ref)]

        return run


def setup_cli(seed, runner):
    import numpy as np
    import spheremaps.cli  # noqa: F401  (the import every CLI call pays)

    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(ROUNDS_PLANNED):
        rounds.append([(" ".join(args[:2]), runner.op(args, ratio))
                       for args, ratio in _cli_round(rng)])
    return rounds
