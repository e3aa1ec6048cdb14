"""Command-line interface tests: parsing, outputs, exit codes, determinism."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from spheremaps import cli, gallery, grid, sphere2

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

    def test_pair_zigzag(self):
        r = run_cli("pair", "--pair", "zigzag:d1=1,d2=0", "--s", "1",
                    "--p", "1")
        assert r.returncode == 0
        assert "4" in r.stdout

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

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        run_cli("degree", "--map", "power:d=1", "--output", str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_grid_env_override(self):
        import os

        env = dict(os.environ, HG_GRID_M="2048")
        r = subprocess.run(
            [sys.executable, "-c",
             "from spheremaps import grid; print(grid.power_map(1).m)"],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0
        assert r.stdout.strip() == "2048"
