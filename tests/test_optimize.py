"""Tests for the phase-space distance optimizer: ansatz algebra, seeds,
closed-form targets, and small end-to-end searches."""

import math
import threading
import warnings

import numpy as np
import pytest

from spheremaps import gallery, grid, optimize, seminorms, sphere2
from spheremaps.errors import (GridTooCoarse, IndexOutOfRange, NotACircleMap,
                               ParameterError)
from spheremaps.grid import SobolevIndex

PI = np.pi
TWO_PI = 2.0 * np.pi


class TestFormulaAndPhases:
    @pytest.mark.parametrize("p,expected", [
        (1.0, 4.0),                       # 2^2 * pi^0
        (2.0, 2.0 ** 1.5 * PI ** -0.5),   # 2^(3/2) / sqrt(pi)
    ])
    def test_class_distance_formula_values(self, p, expected):
        assert abs(optimize.w1p_formula(p, 1, 0) - expected) < 1e-12
        assert abs(optimize.w1p_formula(p, 3, 1) - 2 * expected) < 1e-12

    def test_formula_depends_only_on_degree_gap(self):
        assert optimize.w1p_formula(1.5, 5, 2) == optimize.w1p_formula(1.5, 0, -3)

    def test_minimizing_pair_phase_windings(self):
        for d1, d2 in [(1, 0), (3, 1), (2, -1)]:
            pf, pg = optimize.minimizing_pair_phases(d1, d2, m=4096)
            f = grid.from_samples(np.exp(1j * pf))
            g = grid.from_samples(np.exp(1j * pg))
            assert grid.degree_winding(f) == d1
            assert grid.degree_winding(g) == d2

    def test_minimizing_pair_near_w11_optimum(self):
        # The explicit profile pair should sit within a few percent of the
        # closed-form class distance before any optimization.
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=8192)
        dt = TWO_PI / 8192
        dfg = np.gradient(np.exp(1j * pf) - np.exp(1j * pg), dt, edge_order=2)
        val = np.sum(np.abs(dfg)) * dt
        assert val < 1.1 * optimize.w1p_formula(1, 1, 0)


class TestAnsatz:
    def test_projection_round_trip(self):
        ans = optimize.PhaseAnsatz(2, 8)
        t = grid.nodes(1024)
        rng = np.random.default_rng(0)
        x = np.zeros(ans.dim)
        x[0] = 0.3
        x[2:] = 0.1 * rng.standard_normal(ans.dim - 2)
        values = ans.phase(t, x)
        y = optimize._project_phase(values, 2, 8)
        assert np.allclose(ans.phase(t, y), values, atol=1e-10)

    def test_alpha_is_a_domain_rotation(self):
        ans = optimize.PhaseAnsatz(3, 6)
        t = grid.nodes(512)
        rng = np.random.default_rng(1)
        x = 0.2 * rng.standard_normal(ans.dim)
        alpha = x[1]
        x0 = x.copy()
        x0[1] = 0.0
        assert np.allclose(ans.phase(t, x), ans.phase(t - alpha, x0),
                           atol=1e-9)

    def test_deriv_matches_finite_differences(self):
        ans = optimize.PhaseAnsatz(1, 5)
        t = grid.nodes(4096)
        rng = np.random.default_rng(2)
        x = 0.3 * rng.standard_normal(ans.dim)
        num = np.gradient(ans.phase(t, x), TWO_PI / t.size, edge_order=2)
        # ignore the wrap rows where the lift jumps by 2*pi*winding
        inner = slice(4, -4)
        assert np.allclose(ans.deriv(t, x)[inner], num[inner], atol=1e-4)

    def test_to_map_has_right_winding(self):
        ans = optimize.PhaseAnsatz(-2, 4)
        f = ans.to_map(np.zeros(ans.dim), m=512)
        assert grid.degree_winding(f) == -2

    @pytest.mark.parametrize("winding,k,m", [(-2, 4, 64), (3, 32, 4096)])
    def test_sample_packs_the_cached_modes_bit_for_bit(self, winding, k, m):
        ans = optimize.PhaseAnsatz(winding, k)
        x = 0.3 * np.random.default_rng(k).standard_normal(ans.dim)
        # the rotation and packing with the mode arrays built afresh
        ks = np.arange(1, k + 1)
        alpha, a, b = x[1], x[2:2 + k], x[2 + k:]
        ca, sa = np.cos(ks * alpha), np.sin(ks * alpha)
        c = 0.5 * ((a * ca - b * sa) - 1j * (a * sa + b * ca))
        want = grid.phase_from_modes(
            np.concatenate(([0], ks, -ks)),
            np.concatenate(([x[0] - winding * alpha], c, np.conj(c))),
            winding, grid.nodes(m))
        for got, ref in zip(ans.sample(x, m), want):
            assert got.tobytes() == ref.tobytes()

    def test_cached_modes_are_read_only(self):
        ans = optimize.PhaseAnsatz(1, 6)
        ans.sample(np.zeros(ans.dim), 64)
        for arr in optimize._modes(6):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7


class TestSeedsAndSearch:
    def test_pair_seeds_start_near_target(self):
        idx = SobolevIndex(1.0, 1.0)
        seeds = optimize._pair_seeds(1, 0, idx, 32)
        obj = optimize._Objective(idx, optimize.PhaseAnsatz(0, 32),
                                  ans_f=optimize.PhaseAnsatz(1, 32),
                                  m_obj=4096)
        best = min(obj(np.concatenate(s))[0] for s in seeds)
        assert best < 1.10 * optimize.w1p_formula(1, 1, 0)

    def test_small_search_w11(self):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_inf_distance(
            f, 0, SobolevIndex(1.0, 1.0), k=8, budget=300, restarts=0,
            m_obj=2048)
        assert rep.gap < 0.10  # tiny budget; acceptance run uses k=32, budget=2000
        assert rep.gap_rel == rep.gap / rep.target
        assert rep.value >= rep.target - 1e-9
        assert len(rep.trace) > 0
        assert rep.runs >= 1


    def test_gap_is_absolute_and_gap_rel_relative(self):
        def report(value, target):
            return optimize.OptimizeReport(
                value=value, params=np.zeros(2), trace=[], runs=1,
                target=target, gap=value - target, nfev=0, nit=0)

        rep = report(4.12, 4.0)
        assert rep.gap == pytest.approx(0.12)
        assert rep.gap_rel == pytest.approx(0.03)
        assert math.isnan(report(0.5, 0.0).gap_rel)  # H^{1/2}: target 0
    def test_one_sided_bounded_below_by_class_distance(self):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_point_to_class(
            f, 0, SobolevIndex(1.0, 1.0), k=8, budget=300, restarts=0,
            m_obj=2048)
        assert rep.value >= optimize.w1p_formula(1, 1, 0) - 1e-6

    def test_gauge_aligned_l2_zero_on_identical_pairs(self):
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=1024)
        f = grid.from_samples(np.exp(1j * pf))
        g = grid.from_samples(np.exp(1j * pg))
        assert optimize.gauge_aligned_l2(f, g, f, g) < 1e-12

    def test_gauge_aligned_l2_ignores_common_rotation(self):
        pf, pg = optimize.minimizing_pair_phases(1, 0, m=1024)
        f = grid.from_samples(np.exp(1j * pf))
        g = grid.from_samples(np.exp(1j * pg))
        rot = np.exp(1j * 0.7)
        f2 = grid.from_samples(f.samples * rot)
        g2 = grid.from_samples(g.samples * rot)
        assert optimize.gauge_aligned_l2(f2, g2, f, g) < 1e-10

    @pytest.mark.parametrize("p", [0.5, -3.0])
    def test_attainment_probe_needs_p_at_least_one(self, p):
        with pytest.raises(IndexOutOfRange, match="p >= 1, got"):
            optimize.attainment_probe(1, p)

    def test_attainment_probe_exact_at_p_one(self):
        probe = optimize.attainment_probe(1, 1.0, budget=200, k=8)
        assert abs(probe["value"] - probe["target"]) < 1e-5 * probe["target"]
        assert set(probe) == {"value", "target"}


def _direct_objective(index, x, ans_g, ans_f=None, f=None, m=1024):
    """Reference _Objective value from phase/deriv evaluated on the grid;
    with a fixed f, g's ansatz rides on f's periodic part."""
    t = grid.nodes(m)
    xg = x[-ans_g.dim:]
    gphi, gder = ans_g.phase(t, xg), ans_g.deriv(t, xg)
    if ans_f is None:
        pm = f.phase
        fphi, fder = pm.value(t), pm.deriv(t)
        gphi = gphi + fphi - pm.winding * t
        gder = gder + fder - pm.winding
    else:
        xf = x[:ans_f.dim]
        fphi, fder = ans_f.phase(t, xf), ans_f.deriv(t, xf)
    if index.s == 0.5:
        diff = np.exp(1j * fphi) - np.exp(1j * gphi)
        return np.sqrt(seminorms.h_half_seminorm_sq(diff))
    q = np.maximum(fder ** 2 + gder ** 2
                   - 2.0 * fder * gder * np.cos(fphi - gphi), 0.0)
    return (np.mean(q ** (0.5 * index.p)) * TWO_PI) ** (1.0 / index.p)


class TestGridSynthesis:
    @pytest.mark.parametrize("k", [4, 32, 128])
    @pytest.mark.parametrize("winding", [-2, -1, 0, 1, 2, 3])
    def test_sample_matches_phase_and_deriv(self, winding, k):
        ans = optimize.PhaseAnsatz(winding, k)
        rng = np.random.default_rng(100 * k + winding + 2)
        x = 0.3 * rng.standard_normal(ans.dim)
        m = 1024
        t = grid.nodes(m)
        phase, deriv = ans.sample(x, m)
        ref_phase, ref_deriv = ans.phase(t, x), ans.deriv(t, x)
        assert np.max(np.abs(phase - ref_phase)) <= 1e-12 * np.max(
            np.abs(ref_phase))
        assert np.max(np.abs(deriv - ref_deriv)) <= 1e-12 * np.max(
            np.abs(ref_deriv))

    @pytest.mark.parametrize("k,m", [(8, 16), (16, 16), (128, 256)])
    def test_sample_rejects_aliased_grids(self, k, m):
        ans = optimize.PhaseAnsatz(1, k)
        with pytest.raises(GridTooCoarse):
            ans.sample(np.zeros(ans.dim), m)


class TestObjective:
    @staticmethod
    def _check(index, ans_g, ans_f=None, f=None, seed=0):
        obj = optimize._Objective(index, ans_g, ans_f=ans_f, f=f, m_obj=1024)
        dim = ans_g.dim + (0 if ans_f is None else ans_f.dim)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = 0.2 * rng.standard_normal(dim)
            ref = _direct_objective(index, x, ans_g, ans_f, f)
            assert abs(obj(x)[0] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_two_sided_w1p_matches_direct_reference(self, p):
        self._check(SobolevIndex(1.0, p), optimize.PhaseAnsatz(0, 16),
                    ans_f=optimize.PhaseAnsatz(1, 16), seed=int(10 * p))

    def test_one_sided_with_periodic_base_matches_direct_reference(self):
        f = gallery.oscillator(1, 6)
        self._check(SobolevIndex(1.0, 1.0), optimize.PhaseAnsatz(0, 16), f=f,
                    seed=7)

    def test_h_half_matches_direct_reference(self):
        self._check(SobolevIndex(0.5, 2.0), optimize.PhaseAnsatz(1, 16),
                    ans_f=optimize.PhaseAnsatz(0, 16), seed=11)


class TestGradient:
    """The objective's gradient against central differences of its value."""

    @staticmethod
    def _check(obj, dim, seed):
        x = 0.2 * np.random.default_rng(seed).standard_normal(dim)
        value, grad = obj(x)
        assert value == obj(x)[0] and grad.shape == x.shape
        h = 1e-6
        num = np.array([(obj(x + h * e)[0] - obj(x - h * e)[0]) / (2.0 * h)
                        for e in np.eye(dim)])
        assert np.linalg.norm(grad - num) <= 1e-6 * np.linalg.norm(num)

    @pytest.mark.parametrize("index", [
        SobolevIndex(1.0, 1.0), SobolevIndex(1.0, 1.5),
        SobolevIndex(1.0, 2.0), SobolevIndex(0.5, 2.0)], ids=str)
    def test_two_sided(self, index):
        ans_f, ans_g = optimize.PhaseAnsatz(1, 8), optimize.PhaseAnsatz(0, 8)
        obj = optimize._Objective(index, ans_g, ans_f=ans_f, m_obj=512)
        self._check(obj, ans_f.dim + ans_g.dim, seed=3)

    @pytest.mark.parametrize("index", [
        SobolevIndex(1.0, 1.0), SobolevIndex(1.0, 1.5),
        SobolevIndex(1.0, 2.0), SobolevIndex(0.5, 2.0)], ids=str)
    def test_one_sided_with_periodic_base(self, index):
        ans_g = optimize.PhaseAnsatz(0, 8)
        obj = optimize._Objective(index, ans_g,
                                  f=gallery.oscillator(1, 6), m_obj=512)
        self._check(obj, ans_g.dim, seed=4)

    @pytest.mark.parametrize("winding", [-2, 0, 3])
    def test_pullback_is_the_adjoint_of_sample(self, winding):
        # <u, dphase> + <v, dderiv> = <pullback(u, v), dx> along any dx
        ans = optimize.PhaseAnsatz(winding, 6)
        rng = np.random.default_rng(winding + 10)
        x, dx = rng.standard_normal((2, ans.dim))
        u, v = rng.standard_normal((2, 64))
        h = 1e-6
        p1, d1 = ans.sample(x + h * dx, 64)
        p0, d0 = ans.sample(x - h * dx, 64)
        lhs = (u @ (p1 - p0) + v @ (d1 - d0)) / (2.0 * h)
        assert ans.pullback(x, u, v) @ dx == pytest.approx(lhs, rel=1e-7)
        assert ans.pullback(x, u) @ dx == pytest.approx(
            u @ (p1 - p0) / (2.0 * h), rel=1e-7)


class TestStopReason:
    def test_iteration_cap_is_budget_exhaustion(self):
        rep = optimize.estimate_inf_distance(
            gallery.build_map("power", d=1), 0, SobolevIndex(1.0, 2.0), k=4,
            budget=3, restarts=0, m_obj=256)
        assert rep.budget_exhausted
        assert "ITERATIONS REACHED LIMIT" in rep.stop_reason
        assert rep.wall_s > 0.0

    def test_convergence_is_not_budget_exhaustion(self):
        # d1 = d2: the zero seed is g = f, a minimum with zero gradient
        rep = optimize.estimate_point_to_class(
            gallery.build_map("power", d=1), 1, SobolevIndex(1.0, 2.0), k=4,
            budget=50, restarts=0, m_obj=256)
        assert rep.value == 0.0
        assert not rep.budget_exhausted
        assert rep.stop_reason.startswith("CONVERGENCE")

    def test_line_search_failure_is_not_budget_exhaustion(self, monkeypatch):
        from scipy.optimize import OptimizeResult

        def failing(fun, x0, **kwargs):
            return OptimizeResult(
                x=x0, fun=fun(x0)[0], nfev=1, nit=0, status=2, success=False,
                message="ABNORMAL: ")

        monkeypatch.setattr(optimize, "minimize", failing)
        rep = optimize.estimate_inf_distance(
            gallery.build_map("power", d=1), 0, SobolevIndex(1.0, 2.0), k=4,
            budget=50, restarts=0, m_obj=256)
        assert not rep.budget_exhausted
        assert rep.stop_reason == "ABNORMAL: "


class TestReportCounters:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        call = optimize._Objective.__call__

        def counting(obj, x):
            calls.append(1)
            return call(obj, x)

        monkeypatch.setattr(optimize._Objective, "__call__", counting)
        return calls

    # at budget 120 the descents race, and replayed calls are not counted
    @pytest.mark.parametrize("budget", [40, 120])
    def test_nfev_counts_every_objective_call(self, counted, budget):
        f = gallery.build_map("power", d=1)
        rep = optimize.estimate_inf_distance(
            f, 0, SobolevIndex(1.0, 2.0), k=4, budget=budget, restarts=0,
            m_obj=256)
        assert rep.nfev == len(counted)
        assert rep.nit >= len(rep.trace) > 0

    def test_one_sided_nfev_and_monotone_trace(self, counted):
        f = gallery.oscillator(1, 6)
        rep = optimize.estimate_point_to_class(
            f, 0, SobolevIndex(1.0, 1.0), k=4, budget=40, restarts=0,
            m_obj=256)
        assert rep.nfev == len(counted)
        assert np.all(np.diff(rep.trace) <= 0.0)
        assert rep.trace[-1] >= rep.value

    def test_trace_never_increases(self):
        f = gallery.build_map("power", d=0)
        rep = optimize.estimate_inf_distance(
            f, 1, SobolevIndex(0.5, 2.0), k=4, budget=40, restarts=0,
            m_obj=256)
        assert np.all(np.diff(rep.trace) <= 0.0)


def _report_bits(rep):
    return (np.float64(rep.value).tobytes(), rep.params.tobytes(),
            np.asarray(rep.trace).tobytes(), rep.nfev, rep.nit,
            rep.stop_reason, rep.budget_exhausted, rep.runs)


SEARCH_CASES = ["w11", "w1p-1.5", "h-half", "one-sided"]


def _small_search(case, budget):
    """One of four small searches of 6 runs, the seeds and then perturbed
    seeds."""
    kw = dict(k=4, budget=budget, restarts=6, seed=5, m_obj=256)
    if case == "one-sided":
        return optimize.estimate_point_to_class(
            gallery.oscillator(1, 6), 0, SobolevIndex(1.0, 1.0), **kw)
    index = {"w11": SobolevIndex(1.0, 1.0), "w1p-1.5": SobolevIndex(1.0, 1.5),
             "h-half": SobolevIndex(0.5, 2.0)}[case]
    f = gallery.random_map(1, np.random.default_rng(3))
    return optimize.estimate_inf_distance(f, 0, index, **kw)


class TestSerialSearch:
    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_a_repeated_search_keeps_the_bits(self, case):
        first, second = (_report_bits(_small_search(case, 15))
                         for _ in range(2))
        assert first[-1] == 6
        assert second == first

    # at budget 120 the winner is among the best two at the checkpoint 40
    # in all four cases; the one-sided runs all stop before it
    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_a_raced_search_keeps_the_report_of_the_full_search(
            self, monkeypatch, case):
        rep = _small_search(case, 120)
        raced, cut = _report_bits(rep), rep.cut
        monkeypatch.setattr(optimize, "_checkpoint", lambda budget: budget)
        rep = _small_search(case, 120)
        full = _report_bits(rep)
        assert rep.cut == 0
        assert raced[:3] + raced[5:] == full[:3] + full[5:]  # but nfev, nit
        if cut:
            assert raced[3] < full[3] and raced[4] < full[4]
        else:
            assert raced[3:5] == full[3:5]

    @staticmethod
    def _failing_at(monkeypatch, n):
        """Let the n-th descent raise; the list holds every descent
        started."""
        scipy_minimize = optimize.minimize
        started = []

        def failing(*args, **kwargs):
            started.append(1)
            if len(started) == n:
                raise ZeroDivisionError(f"descent {n}")
            return scipy_minimize(*args, **kwargs)

        monkeypatch.setattr(optimize, "minimize", failing)
        return started

    @pytest.mark.parametrize("budget", [10, 60])
    def test_a_descent_exception_reaches_the_caller(self, monkeypatch,
                                                    budget):
        self._failing_at(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="descent 2"):
            optimize.estimate_inf_distance(
                gallery.build_map("power", d=1), 0, SobolevIndex(1.0, 2.0),
                k=4, budget=budget, restarts=6, m_obj=256)
        assert threading.active_count() == before

    @pytest.mark.parametrize("budget", [10, 60])
    def test_a_failing_descent_stops_the_search(self, monkeypatch,
                                                budget):
        # 6 runs, all in pass 1: the third raises, and none after it starts
        started = self._failing_at(monkeypatch, 3)
        with pytest.raises(ZeroDivisionError, match="descent 3"):
            optimize.estimate_inf_distance(
                gallery.build_map("power", d=1), 0, SobolevIndex(1.0, 2.0),
                k=4, budget=budget, restarts=6, m_obj=256)
        assert len(started) == 3

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_a_search_starts_no_thread(self, monkeypatch, case):
        # every descent runs on the calling thread, so the number of cores
        # cannot change a report
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        _small_search(case, 60)  # both passes of the race
        assert started == []


class TestDescentGrid:
    @pytest.mark.parametrize("k,m_obj,m_d", [
        (32, 4096, 1024), (128, 2048, 2048), (4, 256, 256), (40, 4096, 2048)])
    def test_32_nodes_per_mode_at_least_1024_at_most_m_obj(self, k, m_obj,
                                                           m_d):
        assert optimize._descent_grid(k, m_obj) == m_d

    @pytest.mark.parametrize("index", [
        SobolevIndex(1.0, 1.0), SobolevIndex(1.0, 1.5), SobolevIndex(1.0, 2.0),
        SobolevIndex(0.5, 2.0)])
    def test_a_two_sided_report_is_measured_on_m_obj(self, monkeypatch,
                                                     index):
        calls = []
        call = optimize._Objective.__call__

        def counting(obj, x):
            calls.append(obj.m)
            return call(obj, x)

        monkeypatch.setattr(optimize._Objective, "__call__", counting)
        rep = optimize.estimate_inf_distance(
            gallery.build_map("power", d=1), 0, index, k=4, budget=20,
            restarts=0, m_obj=2048)
        assert rep.m_descent == 1024 and calls[-1] == 2048
        assert rep.nfev == len(calls) and calls.count(2048) == 1
        ans_f, ans_g = optimize.PhaseAnsatz(1, 4), optimize.PhaseAnsatz(0, 4)
        on = {m: optimize._Objective(index, ans_g, ans_f=ans_f, m_obj=m)
              for m in (1024, 2048)}
        assert rep.value == on[2048](rep.params)[0]
        assert rep.value_descent == on[1024](rep.params)[0]
        assert rep.value_descent == rep.trace[-1]
        assert rep.gap == rep.value - rep.target

    def test_a_one_sided_report_descends_on_m_obj(self):
        rep = optimize.estimate_point_to_class(
            gallery.oscillator(1, 6), 0, SobolevIndex(1.0, 1.0), k=4,
            budget=20, restarts=0, m_obj=2048)
        assert rep.m_descent == 2048
        assert rep.value == rep.value_descent


class TestRace:
    @pytest.fixture
    def descents(self, monkeypatch):
        """(start, maxiter, result, trace) of every descent, in call order."""
        log = []
        descend = optimize._Run.descend

        def logged(run, budget, maxiter):
            descend(run, budget, maxiter)
            log.append((run.start.tobytes(), maxiter, run.res, run.trace))

        monkeypatch.setattr(optimize._Run, "descend", logged)
        return log

    def test_a_budget_under_60_cuts_nothing(self, descents):
        assert optimize._checkpoint(59) == 59
        assert optimize._checkpoint(60) == 20
        rep = _small_search("w11", 59)
        assert rep.cut == 0
        assert [d[1] for d in descents] == [59] * rep.runs
        descents.clear()
        rep = _small_search("w11", 60)
        assert rep.cut == 4
        assert [d[1] for d in descents] == [20] * 6 + [60] * 2

    # the race may cut the eventual winner (w11 and one-sided do here), but
    # every descent it lets finish ends as it would have without the race
    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_every_finished_descent_ends_as_without_the_race(
            self, monkeypatch, descents, case):
        raced = _small_search(case, 60)
        log = list(descents)
        descents.clear()
        monkeypatch.setattr(optimize, "_checkpoint", lambda budget: budget)
        _small_search(case, 60)
        full = {start: (res, trace) for start, _, res, trace in descents}
        ended = {}  # the last descent from each start
        for start, maxiter, res, trace in log:
            ended[start] = (maxiter, res, trace)
        assert len(ended) == raced.runs
        cut = 0
        for start, (maxiter, res, trace) in ended.items():
            want, want_trace = full[start]
            if maxiter == 20 and res.nit == 20 and res.status == 1:
                cut += 1
                assert want_trace[:20] == trace
                continue
            assert (res.x.tobytes(), res.fun, res.message, res.nit) == (
                want.x.tobytes(), want.fun, want.message, want.nit)
            assert trace == want_trace
        assert cut == raced.cut > 0

    @staticmethod
    def _run():
        calls = []

        def objective(x):
            calls.append(x.copy())
            return float(x.sum()), 2.0 * x

        return optimize._Run(objective, np.zeros(3)), calls

    def test_the_tape_answers_while_x_matches(self):
        run, calls = self._run()
        xs = [np.arange(3.0) + i for i in range(3)]
        recorded = [run(x) for x in xs]
        run.recording = False  # as after the first descent
        for x, (value, grad) in zip(xs, recorded):
            got = run(x.copy())
            assert got[0] == value and np.array_equal(got[1], grad)
        assert len(calls) == run.calls == 3
        # past the tape's end the objective is evaluated
        assert run(xs[0])[0] == recorded[0][0]
        assert len(calls) == run.calls == 4

    def test_the_tape_evaluates_once_x_differs(self):
        run, calls = self._run()
        xs = [np.arange(3.0) + i for i in range(3)]
        for x in xs:
            run(x)
        run.recording = False  # as after the first descent
        run(xs[0])
        other = xs[1] + 1e-15 * np.arange(1, 4)
        value, grad = run(other)
        assert len(calls) == 4 and np.array_equal(calls[-1], other)
        assert value == other.sum() and np.array_equal(grad, 2.0 * other)
        # the rest of the tape is dropped: a recorded x is evaluated too
        run(xs[2])
        assert len(calls) == run.calls == 5 and not run.tape

    def test_the_tape_keeps_copies(self):
        run, _ = self._run()
        x = np.ones(3)
        _, grad = run(x)
        x += 1.0
        grad += 1.0
        run.recording = False  # as after the first descent
        value, grad = run(np.ones(3))
        assert value == 3.0 and np.array_equal(grad, 2.0 * np.ones(3))


class TestSearchInputs:
    def test_a_sphere_map_is_not_a_search_source(self):
        f = sphere2.stereographic_power(1, n_phi=32)
        for search in (optimize.estimate_inf_distance,
                       optimize.estimate_point_to_class):
            with pytest.raises(NotACircleMap, match="Sphere2Map"):
                search(f, 0, SobolevIndex(1.0, 2.0), budget=5, restarts=1)

    @pytest.mark.parametrize("k,m_obj", [(32, 64), (128, 256), (5000, 4096)])
    def test_modes_must_fit_the_objective_grid(self, k, m_obj):
        with pytest.raises(ParameterError, match=f"got m_obj = {m_obj}"):
            optimize.estimate_inf_distance(
                grid.power_map(0), 1, SobolevIndex(1.0, 2.0), k=k,
                budget=5, restarts=1, m_obj=m_obj)

    def test_an_overflowing_search_names_p_without_warnings(self):
        # every descent's |f' - g'|^400 overflows to a value of nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IndexOutOfRange, match="at p = 400"):
                optimize.estimate_point_to_class(
                    grid.power_map(1), 0, SobolevIndex(1.0, 400.0),
                    budget=20, restarts=1)


class TestLazyScipy:
    def test_minimize_is_scipys(self):
        import scipy.optimize

        assert optimize.minimize is scipy.optimize.minimize

    def test_a_replaced_minimize_sees_every_descent(self, monkeypatch):
        calls = []
        scipy_minimize = optimize.minimize

        def counting(*args, **kwargs):
            calls.append(1)
            return scipy_minimize(*args, **kwargs)

        monkeypatch.setattr(optimize, "minimize", counting)
        rep = optimize.estimate_inf_distance(
            gallery.build_map("power", d=1), 0, SobolevIndex(1.0, 2.0), k=4,
            budget=20, restarts=0, m_obj=256)
        assert len(calls) == rep.runs > 0


def test_point_to_class_fits_a_sampled_map_once(monkeypatch):
    t = grid.nodes(1024)
    f = grid.from_samples(np.exp(1j * (t + 0.3 * np.sin(2.0 * t))))
    lifts = []
    lift = grid.lift

    def counting(g, *args, **kwargs):
        lifts.append(1)
        return lift(g, *args, **kwargs)

    monkeypatch.setattr(grid, "lift", counting)
    rep = optimize.estimate_point_to_class(f, 0, SobolevIndex(1.0, 1.0), k=4,
                                           budget=40, restarts=0, m_obj=256)
    assert len(lifts) == 1
    assert np.isfinite(rep.value) and rep.target == 4.0
    # the spectral phase of the samples stands in for the analytic one
    exact = grid.CircleMap(f.samples, phase=grid.phase_model(
        lambda t: t + 0.3 * np.sin(2.0 * t),
        lambda t: 1.0 + 0.6 * np.cos(2.0 * t), winding=1))
    ans = optimize.PhaseAnsatz(0, 4)
    x = 0.2 * np.random.default_rng(0).standard_normal(ans.dim)
    got, want = (optimize._Objective(SobolevIndex(1.0, 1.0), ans, f=h,
                                     m_obj=256)(x)[0] for h in (f, exact))
    assert abs(got - want) <= 1e-12 * want
