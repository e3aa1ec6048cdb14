"""Estimate class distances inf |f - g| by simplex descent over
Fourier-parametrized phases with fixed winding.

Seeds come from the gallery (projections of the explicit near-minimizers),
so reported values start at an upper-bound witness and can only improve;
random restarts probe for anything better.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import gallery, grid, seminorms
from .errors import GridTooCoarse, IndexOutOfRange
from .grid import TWO_PI, SobolevIndex

PI = np.pi


@functools.lru_cache(maxsize=8)
def _nodes(m):
    """grid.nodes(m), computed once per size and shared read-only."""
    t = grid.nodes(m)
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class PhaseAnsatz:
    """psi(theta) = winding*theta + base(theta) + c0 + sum a_k cos + b_k sin.

    base is an optional fixed periodic phase (e.g. the periodic part of a
    reference map) so a search can start in a non-trivial gauge; it does not
    change the winding.  An explicit domain-rotation parameter alpha acts on
    the coefficients, keeping the rotation gauge inside the parameter vector.
    """

    winding: int
    k: int
    base: object = None  # optional PhaseModel-like (value, deriv)

    @property
    def dim(self):
        return 2 * self.k + 2  # c0, alpha, a_1..a_K, b_1..b_K

    def _rotated(self, x):
        """Fold the rotation parameter alpha into the mode coefficients."""
        c0, alpha = x[0], x[1]
        a, b = x[2:2 + self.k], x[2 + self.k:]
        ks = np.arange(1, self.k + 1)
        ca, sa = np.cos(ks * alpha), np.sin(ks * alpha)
        return c0 - self.winding * alpha, a * ca - b * sa, a * sa + b * ca

    def phase(self, t, x):
        """The phase at arbitrary points t (use sample on the uniform grid)."""
        c0, a, b = self._rotated(x)
        kt = np.outer(t, np.arange(1, self.k + 1))
        out = self.winding * t + c0 + np.cos(kt) @ a + np.sin(kt) @ b
        if self.base is not None:
            out = out + self.base.value(t)
        return out

    def deriv(self, t, x):
        """The phase derivative at arbitrary points t."""
        _, a, b = self._rotated(x)
        ks = np.arange(1, self.k + 1)
        kt = np.outer(t, ks)
        out = self.winding - np.sin(kt) @ (ks * a) + np.cos(kt) @ (ks * b)
        if self.base is not None:
            out = out + self.base.deriv(t)
        return out

    def sample(self, x, m):
        """(phase, deriv) on grid.nodes(m) from one inverse FFT.

        With c_k = (a_k - i b_k)/2 the periodic part is the Hermitian
        spectrum (c0, c_k, conj c_k) and its derivative is (0, ik c_k,
        -ik conj c_k); packing the derivative as the imaginary part gives
        the single spectrum c_k (1 - k) at +k and conj(c_k) (1 + k) at -k.
        """
        if 2 * self.k >= m:
            raise GridTooCoarse(
                f"{self.k} modes need a grid of more than {2 * self.k} "
                f"nodes, got {m}")
        c0, a, b = self._rotated(x)
        ks = np.arange(1, self.k + 1)
        c = 0.5 * (a - 1j * b)
        spec = np.zeros(m, dtype=complex)
        spec[0] = c0
        spec[1:self.k + 1] = c * (1 - ks)
        spec[m - self.k:] = (np.conj(c) * (1 + ks))[::-1]
        z = np.fft.ifft(spec, norm="forward")
        t = _nodes(m)
        phase, deriv = self.winding * t + z.real, self.winding + z.imag
        if self.base is not None:
            phase = phase + self.base.value(t)
            deriv = deriv + self.base.deriv(t)
        return phase, deriv

    def to_map(self, x, m=None):
        m = grid.default_m() if m is None else m
        return grid.from_samples(np.exp(1j * self.sample(x, m)[0]))


@dataclass
class OptimizeReport:
    """Best result of a search; nfev and nit are summed over its descents."""

    value: float
    params: np.ndarray
    trace: list
    restarts_used: int
    target: float
    gap: float  # absolute: value - target
    nfev: int
    nit: int
    budget_exhausted: bool = False


def _project_phase(values, winding, k):
    """L^2-project a sampled phase onto the K-mode ansatz parameters."""
    m = values.size
    per = values - winding * grid.nodes(m)
    c = np.fft.fft(per) / m
    x = np.zeros(2 * k + 2)
    x[0] = c[0].real
    x[2:2 + k] = 2.0 * c[1:k + 1].real
    x[2 + k:] = -2.0 * c[1:k + 1].imag
    return x


def _smooth_periodic(values, winding, width):
    """Gaussian-mollify the periodic part of a sampled phase."""
    per = values - winding * grid.nodes(values.size)
    ks = grid.fourier_modes(values.size)
    c = np.fft.fft(per) * np.exp(-0.5 * (ks * width) ** 2)
    return np.fft.ifft(c).real + winding * grid.nodes(values.size)


def w1p_formula(p, d1, d2):
    """2^{1/p+1} pi^{1/p-1} |d1 - d2| (the W^{1,p} class-distance value)."""
    return 2.0 ** (1.0 / p + 1.0) * PI ** (1.0 / p - 1.0) * abs(d1 - d2)


def minimizing_pair_phases(d1, d2, mu=0.05, eta=0.1, m=4096):
    """Sampled phases of a near-minimizing W^{1,p} pair in classes (d1, d2).

    The difference phase is the equal-speed arcsin profile (constant |f'-g'|
    for every p), and the mean phase climbs its total pi*(d1+d2) through
    Lorentzian-rate steps (c' ~ eta/(x^2+eta^2)) centered at the points where
    f = g, where climbing is free; the Lorentzian's heavy tails keep the step
    cost O(eta).  mu mollifies the arcsin corners.
    """
    d = d1 - d2
    if d == 0:
        raise ValueError("need d1 != d2")
    t = grid.nodes(m)
    dt = t * d
    kk = np.round(dt / TWO_PI)
    s = dt - TWO_PI * kk
    diff = 2.0 * np.arcsin(s / PI) + TWO_PI * kk  # winds d
    diff = _smooth_periodic(diff, d, mu)
    mean = np.zeros(m)
    if d1 + d2 != 0:
        rate = np.zeros(m)
        for j in range(abs(d)):
            x = np.angle(np.exp(1j * (t - TWO_PI * j / abs(d))))
            rate += eta / (x ** 2 + eta ** 2)
        mean[1:] = np.cumsum(0.5 * (rate[1:] + rate[:-1])) * (TWO_PI / m)
        total = mean[-1] + 0.5 * (rate[0] + rate[-1]) * (TWO_PI / m)
        mean *= PI * (d1 + d2) / total
    return mean + 0.5 * diff, mean - 0.5 * diff


def _w1p_value(p, dphi, dpsi, gapcos):
    sq = np.maximum(dphi ** 2 + dpsi ** 2 - 2.0 * dphi * dpsi * gapcos, 0.0)
    return (np.mean(sq ** (0.5 * p)) * TWO_PI) ** (1.0 / p)


class _Objective:
    """Distance objective over one or two phase-ansatz parameter blocks.

    Quadrature is the uniform trapezoid rule at m_obj nodes (all ansatz maps
    are smooth); the H^{1/2} branch uses the exact mode sum of the sampled
    difference.  Each moving block is synthesized by PhaseAnsatz.sample;
    the parameter-free terms (g's base, a fixed f) are sampled once here.
    """

    def __init__(self, index, ans_g, ans_f=None, f_fixed=None, m_obj=4096):
        self.index = index
        self.h_half = index.s == 0.5 and index.p == 2.0
        if not self.h_half and index.s != 1.0:
            raise IndexOutOfRange(
                "searchable indices are (1, p) and (1/2, 2)")
        self.m = m_obj
        self.ans_g = replace(ans_g, base=None)
        self.ans_f = ans_f
        t = grid.nodes(m_obj)
        self.g_base = (0.0, 0.0) if ans_g.base is None else (
            ans_g.base.value(t), ans_g.base.deriv(t))
        if f_fixed is not None:
            pm = f_fixed.phase or grid.phase_model_from_map(f_fixed)
            self.f_fixed = (pm.value(t), grid.patch_nonfinite(pm.deriv(t)))

    def __call__(self, x):
        if self.ans_f is None:
            (fphi, fder), xg = self.f_fixed, x
        else:
            xf, xg = x[:self.ans_f.dim], x[self.ans_f.dim:]
            fphi, fder = self.ans_f.sample(xf, self.m)
        gphi, gder = self.ans_g.sample(xg, self.m)
        gphi = gphi + self.g_base[0]
        if self.h_half:
            diff = np.exp(1j * fphi) - np.exp(1j * gphi)
            return np.sqrt(seminorms.h_half_seminorm_sq(diff))
        return _w1p_value(self.index.p, fder, gder + self.g_base[1],
                          np.cos(fphi - gphi))


def _run_simplex(objective, x0, budget):
    """One Nelder-Mead descent; the trace holds the best simplex value after
    each iteration, read from scipy's intermediate result."""
    trace = []

    def cb(intermediate_result):
        trace.append(float(intermediate_result.fun))

    res = minimize(objective, x0, method="Nelder-Mead", callback=cb,
                   options={"maxiter": budget, "maxfev": 4 * budget,
                            "xatol": 1e-7, "fatol": 1e-11, "adaptive": True})
    return res, trace


def _pair_seeds(d1, d2, index, k, m=4096):
    """(x_f, x_g) parameter seeds projected from explicit constructions."""
    seeds = []
    if index.s == 1.0:
        # step sharpness rides the band limit: eta ~ 1/k
        for mu, eta in ((0.05, 3.2 / k), (0.05, 1.6 / k), (0.02, 6.4 / k)):
            phi_f, phi_g = minimizing_pair_phases(d1, d2, mu, eta, m)
            seeds.append((_project_phase(phi_f, d1, k),
                          _project_phase(phi_g, d2, k)))
        if index.p == 1.0:
            pair = gallery.zigzag_pair(d1, d2, m)
            seeds.append((_project_phase(grid.lift(pair.f).values, d1, k),
                          _project_phase(grid.lift(pair.g).values, d2, k)))
        return seeds
    # H^{1/2}: capacity-bump profiles carry a winding gap of 1 at small
    # cost; stack any remaining gap as extra full turns on the f side.
    t = grid.nodes(m)
    for eps in (2e-2, 5e-3, 1e-3):
        prof = gallery.capacity_profiles(eps)
        pf = _smooth_periodic(gallery._bump_phase_1d(prof.F, t), 1, 4.0 / k)
        pg = _smooth_periodic(gallery._bump_phase_1d(prof.G, t), 0, 4.0 / k)
        seeds.append((_project_phase(pf + (d1 - 1) * t, d1, k),
                      _project_phase(pg + d2 * t, d2, k)))
    return seeds


class _PeriodicPart:
    """The periodic part of a fixed map's phase, used as an ansatz base so
    the search only has to move the slow component."""

    def __init__(self, f, d1):
        self.pm = f.phase
        if self.pm is None:
            self.pm = grid.phase_model_from_map(f)
        self.d1 = d1

    def value(self, t):
        return grid.patch_nonfinite(self.pm.value(t), t) - self.d1 * t

    def deriv(self, t):
        return grid.patch_nonfinite(self.pm.deriv(t), t) - self.d1


def _one_sided_seeds(d1, d2, k, m=4096):
    """Mode seeds for the based one-sided ansatz: relative to f's own phase,
    a deflation unwinding the winding gap in a window is the periodic
    profile (d2 - d1)(2*pi*S(t) - t)."""
    t = grid.nodes(m)
    seeds = [np.zeros(2 * k + 2)] if d1 == d2 else []
    for width, t0 in ((0.3, 0.0), (0.8, PI), (1.5, PI / 2)):
        prof = (d2 - d1) * (
            TWO_PI * gallery.smoothstep((t - t0) / width + 0.5) - t)
        seeds.append(_project_phase(prof, 0, k))
    # Lorentzian-rate unwinding (cheap tails), centered anywhere
    for eta in (3.2 / k, 6.4 / k):
        rate = eta / (np.angle(np.exp(1j * (t - PI))) ** 2 + eta ** 2)
        c = np.zeros(m)
        c[1:] = np.cumsum(0.5 * (rate[1:] + rate[:-1])) * (TWO_PI / m)
        c *= TWO_PI / (c[-1] + 0.5 * (rate[0] + rate[-1]) * TWO_PI / m)
        seeds.append(_project_phase((d2 - d1) * (c - t), 0, k))
    return seeds


def _search(obj, x_seeds, budget, restarts, seed, target):
    runs = []
    n_runs = max(restarts, len(x_seeds))
    for r in range(n_runs):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=r))
        x0 = np.array(x_seeds[r % len(x_seeds)], dtype=float)
        if r >= len(x_seeds):
            x0 = x0 + 0.05 * rng.standard_normal(x0.size)
        runs.append(_run_simplex(obj, x0, budget))
    # lowest value wins, the earliest run on ties; NaN never beats a number
    best, trace = min(runs, key=lambda run: (np.isnan(run[0].fun), run[0].fun))
    value = float(best.fun)
    return OptimizeReport(value=value, params=np.asarray(best.x), trace=trace,
                          restarts_used=n_runs, target=target,
                          gap=value - target,
                          nfev=sum(int(res.nfev) for res, _ in runs),
                          nit=sum(int(res.nit) for res, _ in runs),
                          budget_exhausted=not best.success)


def _pad_params(x, k):
    """Zero-pad a two-block parameter vector to a larger mode count K."""
    old_k = (x.size // 2 - 2) // 2
    out = []
    for h in (x[: x.size // 2], x[x.size // 2:]):
        y = np.zeros(2 * k + 2)
        y[:2] = h[:2]
        y[2:2 + old_k] = h[2:2 + old_k]
        y[2 + k:2 + k + old_k] = h[2 + old_k:]
        out.append(y)
    return np.concatenate(out)


def estimate_inf_distance(f, d2, index, k=32, budget=2000, restarts=8,
                          seed=0, m_obj=4096, warm_start=None):
    """Two-sided estimate of the class distance from deg(f)'s class to the
    degree-d2 class.  f supplies the starting class d1 and one projection
    seed; both endpoints move during the search.  warm_start accepts a
    previous report's params (possibly with fewer modes)."""
    d1 = grid.degree_winding(f)
    ans_f = PhaseAnsatz(d1, k)
    ans_g = PhaseAnsatz(d2, k)
    obj = _Objective(index, ans_g, ans_f=ans_f, m_obj=m_obj)
    x_seeds = [np.concatenate(s) for s in _pair_seeds(d1, d2, index, k)]
    x_seeds.append(np.concatenate([
        _project_phase(grid.lift(f).values, d1, k), x_seeds[0][ans_f.dim:]]))
    if warm_start is not None:
        x_seeds.insert(0, _pad_params(np.asarray(warm_start, float), k))
    target = w1p_formula(index.p, d1, d2) if index.s == 1.0 else 0.0
    return _search(obj, x_seeds, budget, restarts, seed, target)


def estimate_point_to_class(f, d2, index, k=32, budget=2000, restarts=8,
                            seed=0, m_obj=4096):
    """One-sided estimate of inf over the degree-d2 class of |f - g|,
    with f held fixed."""
    d1 = grid.degree_winding(f)
    ans_g = PhaseAnsatz(d2, k, base=_PeriodicPart(f, d1))
    obj = _Objective(index, ans_g, f_fixed=f, m_obj=m_obj)
    x_seeds = _one_sided_seeds(d1, d2, k)
    # the class distance is a lower bound for any fixed f in the class
    target = w1p_formula(index.p, d1, d2) if index.s == 1.0 else 0.0
    return _search(obj, x_seeds, budget, restarts, seed, target)


def max_phase_derivative(ans, x, m=8192):
    return float(np.max(np.abs(ans.sample(x, m)[1])))


def gauge_aligned_l2(f_opt, g_opt, f_ref, g_ref):
    """Grid-L^2 distance between map pairs, minimized over the shared gauge:
    domain rotation (grid shifts), one common target rotation, reflection."""
    best = np.inf
    for flip in (False, True):
        fo = f_opt.samples[::-1] if flip else f_opt.samples
        go = g_opt.samples[::-1] if flip else g_opt.samples
        corr = np.fft.ifft(
            np.fft.fft(fo) * np.conj(np.fft.fft(f_ref.samples))
            + np.fft.fft(go) * np.conj(np.fft.fft(g_ref.samples)))
        m = fo.size
        d2 = (4.0 * m - 2.0 * np.abs(corr)) * TWO_PI / m  # unit-modulus maps
        best = min(best, float(np.sqrt(np.maximum(d2, 0.0).min())))
    return best


def attainment_probe(d1, p, budget=2000, k=32, seed=0, restarts=3,
                     m_obj=2048):
    """Probe whether the W^{1,p} class-distance infimum is attained.

    p = 1: evaluates the exact zigzag witness (attained).  1 < p < 2: runs
    against d2 = -d1 and reports the gauge-aligned closeness to the explicit
    minimizer (attained).  p >= 2: runs (d1, 0) at two budgets and reports
    the growth of max|psi'| (concentration = non-attainment signature).
    """
    if p <= 1.0:
        pair = gallery.zigzag_pair(d1, 0)
        value = seminorms.w1p_distance(pair.f, pair.g, 1.0)
        return {"p": p, "value": value, "target": 4.0 * abs(d1),
                "stages": [{"value": value}]}
    index = SobolevIndex(1.0, p)
    if p < 2.0:
        d2 = -d1
        rep = estimate_inf_distance(grid.power_map(d1), d2, index, k=k,
                                    budget=budget, seed=seed,
                                    restarts=restarts, m_obj=m_obj)
        ans_f, ans_g = PhaseAnsatz(d1, k), PhaseAnsatz(d2, k)
        xf, xg = rep.params[: ans_f.dim], rep.params[ans_f.dim:]
        ref = gallery.attainment_pair(d1, p)
        close = gauge_aligned_l2(ans_f.to_map(xf, ref.f.m),
                                 ans_g.to_map(xg, ref.f.m), ref.f, ref.g)
        return {"p": p, "value": rep.value, "target": rep.target,
                "gap_rel": rep.gap / rep.target, "l2_to_minimizer": close,
                "stages": [{"value": rep.value}]}
    stages = []
    for mult, kk in ((1, k), (4, 4 * k)):
        rep = estimate_inf_distance(grid.power_map(d1), 0, index, k=kk,
                                    budget=mult * budget, seed=seed,
                                    restarts=restarts, m_obj=m_obj)
        ans_f, ans_g = PhaseAnsatz(d1, kk), PhaseAnsatz(0, kk)
        xf, xg = rep.params[: ans_f.dim], rep.params[ans_f.dim:]
        sharp = max(max_phase_derivative(ans_f, xf),
                    max_phase_derivative(ans_g, xg))
        stages.append({"budget": mult * budget, "k": kk, "value": rep.value,
                       "max_dpsi": sharp, "gap_rel": rep.gap / rep.target})
    return {"p": p, "value": stages[-1]["value"],
            "target": w1p_formula(p, d1, 0), "stages": stages}
