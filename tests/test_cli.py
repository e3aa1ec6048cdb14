"""Command-line interface tests: parsing, outputs, exit codes, determinism."""

import hashlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spheremaps import cli, experiments, gallery, grid, optimize, sphere2
from spheremaps.errors import ParameterError

PI = np.pi


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "spheremaps.cli", *args],
                          capture_output=True, text=True, env=env)


class TestMapSpecParsing:
    def test_power_map_spec(self):
        f = cli.parse_map_spec("power:d=3")
        assert grid.degree_winding(f) == 3

    def test_float_params_pass_through(self):
        f = cli.parse_map_spec("deflate:d1=2,d=1,lam=0.01")
        assert grid.degree_winding(f) == 1

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            cli.parse_map_spec("nonsense:d=1")

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError):
            cli.parse_map_spec("power:d")

    def test_csv_round_trip(self, tmp_path):
        f = cli.parse_map_spec("power:d=2")
        path = tmp_path / "map.csv"
        t = grid.nodes(f.m)
        rows = ["theta,re,im"]
        rows += [f"{a:.17g},{v.real:.17g},{v.imag:.17g}"
                 for a, v in zip(t, f.samples)]
        path.write_text("\n".join(rows) + "\n")
        g = cli.parse_map_spec(str(path))
        assert grid.degree_winding(g) == 2
        assert np.max(np.abs(g.samples - f.samples)) < 1e-12


# one spec per gallery name: (spec, degree or degrees, grid size)
MAP_SPECS = {
    "power": ("power:d=2,m=1024", 2, 1024),
    "blaschke": ("blaschke:d=1,delta=0.2", -1, 4096),
    "oscillator": ("oscillator:d1=1,n=4,m=2048", 1, 2048),
    "multibump": ("multibump:d=2,n=16", 2, 4096),
    "denseonto": ("denseonto:d1=1,n=2", 1, None),
    "ramp": ("ramp:d=1,gap=0.4", 1, 4096),
    "deflate": ("deflate:d1=2,d=1,lam=0.01", 1, 4096),
    "suspension": ("suspension:k=3,dh=2,nphi=64", 2, 64),
    "stereo": ("stereo:d=-2,nphi=32", -2, 32),
}
PAIR_SPECS = {
    "zigzag": ("zigzag:d1=1,d2=0", (1, 0), 4096),
    "attainment": ("attainment:d1=1,p=1.5,m=2048", (1, -1), 2048),
    "bump": ("bump:eps=1e-2,m=4096", (1, 0), 4096),
    "productshift": ("productshift:d1=2,d2=0", (2, 0), 4096),
    "plateau": ("plateau:d1=1,d2=2,m=1024", (1, 2), 1024),
    "vo1": ("vo1:d1=3,d2=1,nphi=32", (3, 1), 32),
}


def _degree_and_size(f):
    if isinstance(f, sphere2.Sphere2Map):
        return round(sphere2.degree_kronecker_s2(f)), f.n_phi
    return grid.degree_winding(f), f.m


class TestGalleryNames:
    def test_every_name_has_a_spec_here(self):
        assert set(MAP_SPECS) == set(gallery.MAPS)
        assert set(PAIR_SPECS) == set(gallery.PAIRS)

    @pytest.mark.parametrize("name", sorted(MAP_SPECS))
    def test_map_builds_from_its_spec(self, name):
        spec, degree, size = MAP_SPECS[name]
        got_degree, got_size = _degree_and_size(cli.parse_map_spec(spec))
        assert got_degree == degree
        assert size is None or got_size == size

    @pytest.mark.parametrize("name", sorted(PAIR_SPECS))
    def test_pair_builds_from_its_spec(self, name):
        spec, degrees, size = PAIR_SPECS[name]
        pair_name, params = cli.split_spec(spec)
        pair = gallery.build_pair(pair_name, **params)
        (df, size_f), (dg, _) = map(_degree_and_size, (pair.f, pair.g))
        assert pair.claim
        assert size_f == size
        if name != "vo1":  # 32 rows do not resolve its insertion bumps
            assert (df, dg) == degrees


MISUSE = [
    ("degree", "--map", "power:d=1.5"),
    ("degree", "--map", "power:d=nan"),
    ("degree", "--map", "power"),
    ("degree", "--map", "power:d=1,m=1024.5"),
    ("degree", "--map", "multibump:d=2,ndim=2"),
    ("degree", "--map", "stereo:d=1,m=64"),
    ("degree", "--map", "multibump:d=2,nphi=999"),
    ("pair", "--pair", "bump:eps=1e-2,ndim=2,m=1024", "--s", "1", "--p", "2"),
    ("degree", "--map", "stereo:d=100"),
    ("degree", "--map", "suspension:k=1,dh=200"),
    ("degree", "--map", "stereo:d=1,nphi=2048"),
    ("pair", "--pair", "bump:eps=1e-9", "--s", "0.5", "--p", "2"),
    ("degree", "--map", "blaschke:d=1000,delta=1e-6"),
    ("degree", "--map", "denseonto:d1=1,n=1000"),
    ("seminorm", "--map", "power:d=1,zz=3", "--s", "1", "--p", "2"),
    ("seminorm", "--map", "power:d=1", "--s", "0.5", "--p", "2",
     "--method", "w1p"),
    ("seminorm", "--map", "power:d=1", "--s", "1", "--p", "1",
     "--method", "fourier"),
    ("seminorm", "--map", "power:d=1", "--s", "1.5", "--p", "2"),
    ("pair", "--pair", "bump:eps=1e-2", "--s", "0.5", "--p", "1.5"),
    ("pair", "--pair", "zigzag:d1=1", "--s", "1", "--p", "1"),
    ("experiment", "w11-zigzag", "--param", "d1=1.5"),
    ("experiment", "s2-energy", "--param", "d=1,x"),
    ("experiment", "capacity-decay", "--param", "eps_extended="),
    ("sweep", "multibump", "--d", "1.5"),
    ("sweep", "deflation", "--n", "3"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "2", "--budget", "0"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "2", "--budget", "-1", "--one-sided"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "2", "--k", "0"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "2", "--k", "-1"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "2", "--k", "0", "--one-sided"),
    ("seminorm", "--map", "power:d=2", "--s", "1", "--p", "inf",
     "--method", "w1p"),
    ("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
     "--p", "inf"),
    # a bump radius 1/n needs n >= 1: n = 0 divided by zero, and n < 0
    # built a map of the wrong degree or asked for a negative grid
    ("degree", "--map", "multibump:d=1,n=0"),
    ("experiment", "multibump-scaling", "--param", "n=0"),
    ("degree", "--map", "multibump:d=1,n=-2"),
    ("degree", "--map", "multibump:d=1,ndim=2,n=-3"),
    ("sweep", "product-shift", "--d", "0"),
    ("experiment", "product-shift-scaling", "--param", "d=0"),
    ("experiment", "s2-vo1", "--param", "d_list=3,3"),
    # the Gagliardo sums leave the float range: each printed nan, exit 0
    ("seminorm", "--map", "power:d=3", "--s", "0.5", "--p", "250"),
    ("seminorm", "--map", "power:d=3", "--s", "0.5", "--p", "700"),
    ("seminorm", "--map", "power:d=3", "--s", "0.99", "--p", "300"),
    ("pair", "--pair", "zigzag:d1=1,d2=0", "--s", "0.5", "--p", "1e300"),
    ("sweep", "capacity", "--eps", "1e-300"),
    # numpy's out-of-memory traceback, exit 1, allocating the breakpoints
    ("pair", "--pair", "zigzag:d1=10000000000,d2=0", "--s", "1", "--p", "1"),
    ("pair", "--pair", "attainment:d1=10000000000", "--s", "1", "--p", "1.5"),
    ("degree", "--map", "oscillator:d1=1,n=100000"),
    ("degree", "--map", "multibump:d=10000000000,n=100000000000"),
    # a turned-around smoothstep: each printed a wrong degree, exit 0
    ("degree", "--map", "ramp:d=2,gap=3.5"),
    ("degree", "--map", "ramp:d=1,gap=4"),
    ("degree", "--map", "deflate:d1=1,d=1,gap=4"),
]


# misuse whose one error line must name the rule it breaks
RULES = [
    (("optimize", "--from", "stereo:d=1", "--to-class", "0", "--s", "1",
      "--p", "2", "--budget", "5", "--restarts", "1"),
     "the search takes circle maps, got Sphere2Map"),
    (("sweep", "deflation", "--d", "0"), "dist-w11-hausdorff needs d != 0"),
    (("experiment", "s2-energy", "--param", "d=0"),
     "s2-energy needs d != 0"),
    (("optimize", "--from", "power:d=1", "--to-class", "0", "--s", "1",
      "--p", "400", "--budget", "20", "--restarts", "1", "--one-sided"),
     "at p = 400"),
    (("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "1",
      "--p", "2", "--k", "5000"),
     "more than 2k = 10000 nodes, got m_obj = 4096"),
    (("experiment", "s2-vo1", "--param", "d_list=3"),
     "s2-vo1 needs two degrees or more"),
    (("degree", "--map", "denseonto:d1=1,n=-3"), "need n >= 1, got -3"),
    (("degree", "--map", "multibump:d=1,n=0"), "multibump needs n >= 1"),
    (("sweep", "product-shift", "--d", "0"),
     "product-shift-scaling needs d != 0"),
    (("experiment", "s2-vo1", "--param", "d_list=3,7,3"),
     "all distinct, got (3, 7, 3)"),
    # each printed the H^{1/2} distance and exited 0
    (("sweep", "product-shift", "--d", "1,2", "--s", "0.3", "--p", "1.5"),
     "measures (s, p) = (1, p) or (1/2, 2), got (0.3, 1.5)"),
    (("sweep", "product-shift", "--d", "1,2", "--s", "2", "--p", "7"),
     "measures (s, p) = (1, p) or (1/2, 2), got (2, 7)"),
    (("sweep", "product-shift", "--d", "1,2", "--s", "0.5", "--p", "3"),
     "measures (s, p) = (1, p) or (1/2, 2), got (0.5, 3)"),
    # numpy's Philox key error, a silent run, and the seed builder's error
    (("optimize", "--from", "power:d=1", "--to-class", "0", "--s", "1",
      "--p", "2", "--seed", "-1"), "seed must be in [0, 2^128), got -1"),
    (("optimize", "--from", "power:d=1", "--to-class", "0", "--s", "1",
      "--p", "2", "--seed", str(2 ** 128), "--one-sided"),
     f"seed must be in [0, 2^128), got {2 ** 128}"),
    (("experiment", "w1p-formula", "--param", "seed=-1"),
     "seed must be in [0, 2^128), got -1"),
    (("optimize", "--from", "power:d=1", "--to-class", "0", "--s", "1",
      "--p", "2", "--restarts", "-3"), "restarts must be at least 0, got -3"),
    (("optimize", "--from", "power:d=0", "--to-class", "0", "--s", "1",
      "--p", "1"), "search needs d1 != d2, got d1 = d2 = 0"),
    (("experiment", "w1p-formula", "--param", "d2=0"),
     "search needs d1 != d2, got d1 = d2 = 0"),
    (("pair", "--pair", "zigzag:d1=10000000000,d2=0", "--s", "1", "--p", "1"),
     "the phase has 20000000001 breakpoints, more than the cap 2^22"),
    (("pair", "--pair", "attainment:d1=10000000000", "--s", "1",
      "--p", "1.5"),
     "the phase has 20000000000 breakpoints, more than the cap 2^22"),
    (("degree", "--map", "oscillator:d1=1,n=100000"),
     "the phase has 19999999999 breakpoints, more than the cap 2^22"),
    (("degree", "--map", "multibump:d=10000000000,n=100000000000"),
     "the phase has 10000000000 breakpoints, more than the cap 2^22"),
    (("degree", "--map", "oscillator:d1=1,n=1449"),
     "the phase has 4199201 breakpoints, more than the cap 2^22"),
    (("degree", "--map", "ramp:d=2,gap=3.5"),
     "ramp needs 0 <= gap < pi, got 3.5"),
    (("degree", "--map", "ramp:d=1,gap=4"), "ramp needs 0 <= gap < pi, got 4"),
    (("degree", "--map", "deflate:d1=1,d=1,gap=4"),
     "ramp needs 0 <= gap < pi, got 4"),
    # FAIL against the limit 0, exit 1
    (("experiment", "h-half-blaschke", "--param", "d=0"),
     "h-half-blaschke needs d != 0"),
    # a row of the W^{1,1} zigzag value, "attained", PASS and exit 0
    (("experiment", "attainment", "--param", "p=0.5"),
     "need finite s > 0 and p >= 1, got (1.0, 0.5)"),
    (("experiment", "attainment", "--param", "p=-3"),
     "need finite s > 0 and p >= 1, got (1.0, -3.0)"),
    # builder, lookup and index rules that no other test reaches
    (("pair", "--pair", "zigzag:d1=1,d2=1", "--s", "1", "--p", "1"),
     "zigzag pair needs d1 != d2"),
    (("degree", "--map", "oscillator:d1=1,n=2"), "need n >= 3"),
    (("pair", "--pair", "attainment:d1=0", "--s", "1", "--p", "1.5"),
     "need d1 != 0"),
    (("degree", "--map", "blaschke:d=1,delta=1.5"), "need 0 < delta < 1"),
    (("pair", "--pair", "bump:eps=0.01,ndim=3", "--s", "0.5", "--p", "2"),
     "n_dim must be 1 or 2"),
    (("degree", "--map", "multibump:d=0"), "need d != 0"),
    (("pair", "--pair", "plateau:d1=2,d2=1", "--s", "1", "--p", "2"),
     "plateau pair needs 0 < d1 < d2"),
    (("degree", "--map", "deflate:d1=1,d=1,lam=7"), "need 0 < lam < 2*pi"),
    (("pair", "--pair", "vo1:d1=1,d2=1", "--s", "1", "--p", "2"),
     "need d1 != d2"),
    (("seminorm", "--map", "power:d=1", "--s", "1", "--p", "2",
      "--method", "nosuch"), "unknown method"),
    (("sweep", "nosuch"), "unknown sweep"),
    (("experiment", "nosuch"), "unknown experiment"),
    (("optimize", "--from", "power:d=0", "--to-class", "1", "--s", "0.7",
      "--p", "2"), "searchable indices are (1, p) and (1/2, 2)"),
]


def _csv_text(theta, samples):
    return "theta,re,im\n" + "".join(
        f"{a:.17g},{z.real:.17g},{z.imag:.17g}\n"
        for a, z in zip(theta, samples))


_SQUARE = grid.power_map(2, 64)  # power:d=2 on 64 nodes


class TestMisuse:
    @pytest.mark.parametrize("argv", MISUSE, ids=" ".join)
    def test_exits_two_with_one_error_line(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    # the reversed rows printed degree -2 and the halved theta 2, exit 0
    @pytest.mark.parametrize("text", [
        None, "theta,re,im\n", "theta,re\n" + "0,1\n" * 16,
        _csv_text(_SQUARE.theta[::-1], _SQUARE.samples[::-1]),
        _csv_text(_SQUARE.theta / 2, _SQUARE.samples)],
        ids=["directory", "header-only", "two-columns", "reversed-theta",
             "halved-theta"])
    def test_bad_csv_map_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "map.csv"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert cli.main(["degree", "--map", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        if text is not None:
            assert "theta,re,im" in err

    @pytest.mark.parametrize("argv,rule", RULES,
                             ids=[" ".join(argv) for argv, _ in RULES])
    def test_message_names_the_rule(self, capsys, argv, rule):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and rule in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("p", ["250", "1e300"])
    def test_threaded_overflow_exits_two_without_warnings(self, p):
        # the 4096-node sum runs on every core; at p = 1e300 |d|^p
        # overflows inside the worker threads, which must not warn either
        r = run_cli("seminorm", "--map", "power:d=3", "--s", "0.5", "--p", p)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == (
            f"error: the Gagliardo sum at (s, p) = (0.5, {float(p):g}) "
            f"leaves the floating-point range: use a smaller p\n")

    def test_unknown_name_message_has_no_quotes(self, capsys):
        assert cli.main(["degree", "--map", "nosuch:d=1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown map name 'nosuch'; known: power,")


class TestAttainmentPair:
    @pytest.mark.parametrize("d1", [4, 10, 50])
    def test_prints_the_closed_form(self, d1):
        # a node on a cusp of the phase, where phi' is infinite, once read
        # as an aliasing step, and s/pi one ulp past 1 warned in arcsin
        r = run_cli("pair", "--pair", f"attainment:d1={d1},p=1.5",
                    "--s", "1", "--p", "1.5")
        assert r.returncode == 0 and r.stderr == ""
        rows = dict(line.split(",")[0::3]
                    for line in r.stdout.splitlines()[1:])
        p = 1.5
        exact = 2 ** (1 / p + 1) * PI ** (1 / p - 1) * 2 * d1
        assert abs(float(rows["w1p_quadrature"]) - exact) <= 1e-10 * exact


class TestRejectedSizes:
    @pytest.mark.parametrize("spec,need", [
        ("power:d=3000", "need m >= 8192"),
        ("power:d=5000", "need m >= 16384"),
        ("ramp:d=50,gap=3.1", "need m >= 16384"),
        ("denseonto:d1=1,n=40,m=1024", "need m >= 2048"),
        ("power:d=3000000",
         "no grid under the cap 2^22 = 4194304 resolves it")])
    def test_aliasing_phase_names_the_grid_it_needs(self, capsys, spec, need):
        assert cli.main(["degree", "--map", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the phase steps")
        assert err.strip().endswith(need)
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("degree", "--map", "blaschke:d=1,delta=1e-320"),
        ("pair", "--pair", "bump:eps=1e-320", "--s", "0.5", "--p", "2"),
        ("degree", "--map", "denseonto:d1=0,n=0")], ids=" ".join)
    def test_extreme_default_sizes_exit_two(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("nphi", [0, -3])
    def test_sphere_grid_needs_a_row(self, capsys, nphi):
        assert cli.main(["degree", "--map", f"stereo:d=0,nphi={nphi}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.strip().endswith("need nphi >= 1")
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def _deflation_m(d, lam):
        """The deflation grid by its rule, one doubling at a time: the
        smallest power of two from 4096 with m > 4 pi |d| / lam."""
        m = grid.DEFAULT_M
        while m <= min(grid.MAX_M, 4.0 * PI * abs(d) / lam):
            m *= 2
        return m

    # lam = 4 pi |d| / 2^k puts 4 pi |d| / lam on the power of two 2^k
    @pytest.mark.parametrize("d,lam", [
        (1, 0.1), (3, 0.01), (4, 0.01), (-2, 0.01), (1, 4 * PI / 2 ** 12),
        (2, 8 * PI / 2 ** 13), (3, 12 * PI / 2 ** 15), (1, 4 * PI / 2 ** 22)])
    def test_deflation_grid_follows_its_rule(self, monkeypatch, d, lam):
        sizes, ramp = [], gallery.ramp_map
        monkeypatch.setattr(gallery, "ramp_map",
                            lambda dv, m: sizes.append(m) or ramp(dv, m=m))
        want = self._deflation_m(d, lam)
        params = {"d": (d,), "lam": (lam,)}
        if want > grid.MAX_M:
            with pytest.raises(ParameterError, match="over the cap"):
                experiments.run_experiment("dist-w11-hausdorff", **params)
            assert sizes == []
        else:
            res = experiments.run_experiment("dist-w11-hausdorff", **params)
            assert sizes == [want] and res.passed

    def test_deflation_sweep_sizes_its_grid(self, capsys):
        # the twist of d = 4 at lam = 0.01 steps 3.86 rad per node on the
        # default 4096 nodes, so the experiment takes 8192
        assert cli.main(["sweep", "deflation", "--d", "2,4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4 and all(r.endswith(",0,True") for r in rows)

    @pytest.mark.parametrize("nodes,message", [
        (0, "nodes >= 16, got 0"), (1, "nodes >= 16, got 1"),
        (2, "nodes >= 16, got 2"), (15, "nodes >= 16, got 15"),
        (32769, "at most 32768 nodes, got 32769")])
    def test_capacity_decay_bounds_its_nodes(self, capsys, nodes, message):
        argv = ["experiment", "capacity-decay", "--param", f"nodes={nodes}"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.strip().endswith(message)
        assert len(err.strip().splitlines()) == 1


def _comma(value):
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value)


class TestExperimentParams:
    @pytest.mark.parametrize("name", [name for name in experiments.REGISTRY
                                      if name not in experiments.SLOW])
    def test_defaults_round_trip_through_param(self, capsys, name):
        assert cli.main(["experiment", name]) == 0
        plain = capsys.readouterr().out
        argv = ["experiment", name]
        defaults = experiments.REGISTRY[name].__kwdefaults__
        for key, value in defaults.items():
            argv += ["--param", f"{key}={_comma(value)}"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == plain

    # a bad late element ran every search before it, then printed no row
    @pytest.mark.parametrize("name,param,rule", [
        ("w1p-formula", "p=1.5,0.5",
         "need finite s > 0 and p >= 1, got (1.0, 0.5)"),
        ("attainment", "p=1.5,0.5",
         "need finite s > 0 and p >= 1, got (1.0, 0.5)"),
        ("oscillator-lb", "n=6,2", "need n >= 3")])
    def test_a_bad_late_element_starts_no_search(self, capsys, monkeypatch,
                                                 name, param, rule):
        calls = []

        def search(*args, **kwargs):
            calls.append(args)
            raise ParameterError("a search started")

        for fn in ("estimate_inf_distance", "estimate_point_to_class",
                   "attainment_probe"):
            monkeypatch.setattr(optimize, fn, search)
        code = cli.main(["experiment", name, "--param", param])
        assert calls == []
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {rule}\n"

    @pytest.mark.parametrize("name", [
        name for name, runner in experiments.REGISTRY.items()
        if "d" in runner.__kwdefaults__])
    def test_every_d_rejects_zero(self, capsys, name):
        d = experiments.REGISTRY[name].__kwdefaults__["d"]
        value = _comma(d + (0,)) if isinstance(d, tuple) else "0"
        assert cli.main(["experiment", name, "--param", f"d={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {name} needs d != 0\n"


class TestCommands:
    def test_degree_power_map(self):
        r = run_cli("degree", "--map", "power:d=3")
        assert r.returncode == 0
        assert ",3," in r.stdout or r.stdout.strip().endswith(",3")

    def test_degree_blaschke(self):
        r = run_cli("degree", "--map", "blaschke:d=2,delta=0.1")
        assert r.returncode == 0
        assert "-2" in r.stdout

    def test_degree_suspension_even_crossings(self):
        r = run_cli("degree", "--map", "suspension:k=2,dh=3")
        assert r.returncode == 0
        last = r.stdout.strip().splitlines()[-1]
        assert float(last.split(",")[-1]) == pytest.approx(0.0, abs=1e-2)

    def test_seminorm_fourier_identity(self):
        r = run_cli("seminorm", "--map", "power:d=1", "--s", "0.5",
                    "--p", "2", "--method", "fourier")
        assert r.returncode == 0
        header = r.stdout.splitlines()[0].split(",")
        row = r.stdout.strip().splitlines()[-1].split(",")
        val_sq = float(row[header.index("value_sq")])
        assert abs(val_sq - 4.0 * PI ** 2) < 1e-8

    def test_large_p_gagliardo_exits_two_without_warnings(self):
        r = run_cli("seminorm", "--map", "power:d=3", "--s", "0.5",
                    "--p", "700")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_large_p_gagliardo_of_a_constant_is_zero(self):
        r = run_cli("seminorm", "--map", "power:d=0", "--s", "0.5",
                    "--p", "700", "--method", "gagliardo")
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout.splitlines()[-1] == "gagliardo_quadrature,0.5,700,0"

    def test_pair_zigzag(self):
        r = run_cli("pair", "--pair", "zigzag:d1=1,d2=0", "--s", "1",
                    "--p", "1")
        assert r.returncode == 0
        assert "4" in r.stdout

    @pytest.mark.parametrize("p,claims", [("1", ["w11_zigzag_4d", ""]),
                                          ("2", ["", ""])])
    def test_pair_claim_only_at_its_index(self, capsys, p, claims):
        # rows w1p_quadrature, sup_norm: 4|d1 - d2| is a W^{1,1} claim only
        argv = ["pair", "--pair", "zigzag:d1=1,d2=0", "--s", "1", "--p", p]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,s,p,value,claim"
        assert [line.split(",")[-1] for line in lines[1:]] == claims

    def test_experiment_pass_exits_zero(self):
        r = run_cli("experiment", "w11-zigzag")
        assert r.returncode == 0

    def test_unknown_experiment_exits_two(self):
        r = run_cli("experiment", "no-such-experiment")
        assert r.returncode == 2
        assert r.stderr.strip() != ""

    def test_bad_map_spec_exits_two(self):
        r = run_cli("degree", "--map", "power:d")
        assert r.returncode == 2

    def test_seminorm_of_sphere_map_exits_two(self):
        r = run_cli("seminorm", "--map", "stereo:d=1", "--s", "1",
                    "--p", "2")
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_unknown_param_exits_two(self):
        r = run_cli("experiment", "w11-zigzag", "--param", "bogus=1")
        assert r.returncode == 2

    def test_experiment_all_rejects_params(self, capsys):
        assert cli.main(["experiment", "all", "--param", "d1=2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_a_failing_experiment_prints_its_failing_rows(self, capsys):
        # eps that rises: the bump distances rise with it, and the claim fails
        argv = ["experiment", "eps-bump-critical", "--param", "eps=1e-4,1e-2"]
        assert cli.main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("eps-bump-critical: FAIL")
        assert [line.split(",")[0] for line in lines[4:]] == [
            "failing row: 0.0001", "failing row: 0.01"]

    def test_a_failing_sweep_exits_one(self, capsys):
        # eps that rises again: the capacity norms cannot keep decreasing
        assert cli.main(["sweep", "capacity", "--eps", "1e-2,1e-3,1e-2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.endswith(",False") for line in lines[1:])

    # a negative d printed a negative per_degree and slope_ratio with PASS,
    # complex scaled values, or "math domain error" with exit 2
    @pytest.mark.parametrize("argv,scaled,ratio", [
        (("experiment", "multibump-scaling", "--param", "d={}"),
         "per_degree", "slope_ratio"),
        (("sweep", "product-shift", "--d={}", "--p", "1.5"),
         "scaled", "scaled_ratio"),
        (("sweep", "product-shift", "--d={}", "--s", "0.5", "--p", "2"),
         "scaled", "scaled_ratio")], ids=["multibump", "w1p", "h-half"])
    def test_scaling_divides_by_the_size_of_d(self, capsys, argv, scaled,
                                              ratio):
        tables = []
        for d in ("1,2", "-1,-2"):
            assert cli.main([a.format(d) for a in argv]) == 0
            lines = capsys.readouterr().out.splitlines()
            tables.append([dict(zip(lines[0].split(","), line.split(",")))
                           for line in lines[1:3]])
        for pos, neg in zip(*tables):
            for col in (scaled, ratio):
                assert float(neg[col]) > 0.0
                assert float(neg[col]) == pytest.approx(float(pos[col]),
                                                        rel=1e-12)


class TestSpherePair:
    SPEC = "vo1:d1=3,d2=1,nphi=64"

    @pytest.mark.parametrize("method", [None, "h1"])
    def test_value_is_the_h1_distance(self, capsys, method):
        argv = ["pair", "--pair", self.SPEC, "--s", "1", "--p", "2"]
        assert cli.main(argv + (["--method", method] if method else [])) == 0
        head, row = capsys.readouterr().out.splitlines()
        row = dict(zip(head.split(","), row.split(",")))
        pair = gallery.build_pair("vo1", d1=3, d2=1, nphi=64)
        dist = sphere2.h1_distance(pair.f, pair.g)
        assert float(row["value"]) == dist
        assert float(row["value_sq"]) == dist ** 2

    @pytest.mark.parametrize("s,p,method", [
        ("0.5", "2", None), ("1", "1", None), ("1", "2", "w1p")])
    def test_other_indices_and_methods_exit_two(self, capsys, s, p, method):
        argv = ["pair", "--pair", self.SPEC, "--s", s, "--p", p]
        assert cli.main(argv + (["--method", method] if method else [])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestColdStart:
    def test_commands_without_a_search_never_import_scipy_optimize(self):
        code = ("import sys\n"
                "from spheremaps import cli\n"
                "imported = 'scipy.optimize' in sys.modules\n"
                "cli.main(['degree', '--map', 'power:d=3'])\n"
                "cli.main(['experiment', 'w11-zigzag'])\n"
                "print(imported, 'scipy.optimize' in sys.modules)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "False False"

    def test_commands_load_only_the_modules_they_run(self):
        code = ("import sys\n"
                "from spheremaps import cli\n"
                "def loaded():\n"
                "    return ' '.join(m for m in ('experiments', 'optimize', "
                "'seminorms') if 'spheremaps.' + m in sys.modules) or '-'\n"
                "seen = [loaded()]\n"
                "assert cli.main(['degree', '--map', 'power:d=3']) == 0\n"
                "seen.append(loaded())\n"
                "assert cli.main(['experiment', 'w11-zigzag']) == 0\n"
                "seen.append(loaded())\n"
                "print('|'.join(seen))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "-|-|experiments seminorms"

    def test_seminorms_of_sampled_maps_never_import_scipy(self, tmp_path):
        path = tmp_path / "map.csv"
        t = grid.nodes(256)
        v = np.exp(1j * (t + 0.3 * np.sin(2 * t)))
        path.write_text("theta,re,im\n" + "".join(
            f"{a:.17g},{z.real:.17g},{z.imag:.17g}\n" for a, z in zip(t, v)))
        code = ("import sys\n"
                "from spheremaps import cli\n"
                f"assert cli.main(['seminorm', '--map', {str(path)!r}, "
                "'--s', '1', '--p', '2']) == 0\n"
                "assert cli.main(['seminorm', '--map', "
                "'blaschke:d=1,delta=0.2', '--s', '1', '--p', '1']) == 0\n"
                "print('scipy.optimize' in sys.modules, "
                "'scipy.interpolate' in sys.modules)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "False False"


class TestDeterminism:
    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            r = run_cli("seminorm", "--map", "power:d=2", "--s", "1",
                        "--p", "2", "--output", str(path))
            assert r.returncode == 0
        ha = hashlib.md5(a.read_bytes()).hexdigest()
        hb = hashlib.md5(b.read_bytes()).hexdigest()
        assert ha == hb

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_output_file_holds_the_printed_bytes(self, capsys, tmp_path,
                                                 fmt):
        path = tmp_path / "out.txt"
        assert cli.main(["degree", "--map", "power:d=3", "--format", fmt,
                         "--output", str(path)]) == 0
        data = path.read_bytes()
        assert data == capsys.readouterr().out.encode()
        assert b"\r" not in data and data.count(b"\n") == 4
        assert data.startswith(b"method,value" if fmt == "csv"
                               else b"method\tvalue")

    def test_optimize_output_holds_the_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        assert cli.main(["optimize", "--from", "power:d=1", "--to-class", "0",
                         "--s", "1", "--p", "2", "--budget", "20",
                         "--restarts", "1", "--output", str(path)]) == 0
        assert capsys.readouterr().out.startswith("value,target,gap,")
        head, *rows = path.read_text().splitlines()
        assert head == "iteration,value" and rows
        assert [int(r.split(",")[0]) for r in rows] == list(range(len(rows)))

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        run_cli("degree", "--map", "power:d=1", "--output", str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
