"""Estimate class distances inf |f - g| by L-BFGS-B descent over
Fourier-parametrized phases with fixed winding, driven by the exact gradient
of the distance (limited-memory BFGS: Liu & Nocedal, Math. Prog. 45, 1989).

Seeds come from the gallery (projections of the explicit near-minimizers),
so reported values start at an upper-bound witness and can only improve;
random restarts probe for anything better.

A search's descents race (see _search): every one runs to a third of the
budget, and only the two lowest of those still going there run on to the
full budget.  A survivor replays its recorded objective calls up to that
checkpoint, so it ends on the iterates it would have reached without the
race, and the cut runs' remaining iterations are never paid for.

A two-sided search descends on a coarser grid than it reports on (see
_descent_grid): the trapezoid rule converges exponentially on its smooth
periodic integrand, so 32 nodes per mode resolve the seeds' values to a
relative 3e-5 at p = 1 and to rounding at p = 2 and H^{1/2}.  The winner is then measured
once on the caller's m_obj.  A one-sided search holds a fixed, kinked map
whose landscape moves with the grid, so it descends on m_obj itself.

The descents run one after another on the calling thread: the objective
holds the interpreter lock, so threads bought a search little or nothing.
"""

import collections
import functools
import time
from dataclasses import dataclass

import numpy as np

from . import gallery, grid, seminorms
from .errors import GridTooCoarse, IndexOutOfRange, ParameterError
from .grid import PI, TWO_PI, SobolevIndex


def __getattr__(name):
    """`minimize` is scipy's, imported on first use: scipy.optimize is most
    of a cold start, and only a descent needs it."""
    if name == "minimize":
        from scipy.optimize import minimize
        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.lru_cache(maxsize=8)
def _nodes(m):
    """grid.nodes(m), computed once per size and shared read-only."""
    t = grid.nodes(m)
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=8)
def _modes(k):
    """(ks, n, 1 - n) of a k-mode ansatz: ks = 1..k, n = (0, ks, -ks) the
    modes that PhaseAnsatz.sample packs, and 1 - n their weights in
    PhaseAnsatz.pullback; computed once per k and shared read-only."""
    ks = np.arange(1, k + 1)
    n = np.concatenate(([0], ks, -ks))
    out = ks, n, 1 - n
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhaseAnsatz:
    """psi(theta) = winding*theta + c0 + sum a_k cos + b_k sin.

    An explicit domain-rotation parameter alpha acts on the coefficients,
    keeping the rotation gauge inside the parameter vector.
    """

    winding: int
    k: int

    @property
    def dim(self):
        return 2 * self.k + 2  # c0, alpha, a_1..a_K, b_1..b_K

    def _rotated(self, x):
        """Fold the rotation parameter alpha into the mode coefficients."""
        c0, alpha = x[0], x[1]
        a, b = x[2:2 + self.k], x[2 + self.k:]
        ks = _modes(self.k)[0]
        ka = ks * alpha
        ca, sa = np.cos(ka), np.sin(ka)
        return c0 - self.winding * alpha, a * ca - b * sa, a * sa + b * ca

    def phase(self, t, x):
        """The phase at arbitrary points t (use sample on the uniform grid)."""
        c0, a, b = self._rotated(x)
        kt = np.outer(t, _modes(self.k)[0])
        return self.winding * t + c0 + np.cos(kt) @ a + np.sin(kt) @ b

    def deriv(self, t, x):
        """The phase derivative at arbitrary points t."""
        _, a, b = self._rotated(x)
        ks = _modes(self.k)[0]
        kt = np.outer(t, ks)
        return self.winding - np.sin(kt) @ (ks * a) + np.cos(kt) @ (ks * b)

    def sample(self, x, m):
        """(phase, deriv) on grid.nodes(m) by grid.phase_from_modes, with
        c_k = (a_k - i b_k)/2 at mode k and its conjugate at -k."""
        if 2 * self.k >= m:
            raise GridTooCoarse(
                f"{self.k} modes need a grid of more than {2 * self.k} "
                f"nodes, got {m}")
        c0, a, b = self._rotated(x)
        c = 0.5 * (a - 1j * b)
        return grid.phase_from_modes(_modes(self.k)[1],
                                     np.concatenate(([c0], c, np.conj(c))),
                                     self.winding, _nodes(m))

    def pullback(self, x, u, v=None):
        """The gradient in x of sum_j (u_j phase_j + v_j deriv_j), with
        (phase, deriv) = sample(x, m): the adjoint of sample, from one
        forward FFT (of u + i v, or of u alone when v is None).

        Reading the packing of grid.phase_from_modes backwards gives the
        gradient in A_k - i B_k, the rotated cos/sin coefficients, as U_k -
        i k V_k with U, V the spectra of u and v; the rotation by k alpha
        carries it to a_k - i b_k and to alpha.
        """
        k = self.k
        ks, _, gain = _modes(k)  # gain = (1, 1 - ks, 1 + ks)
        if v is None:
            spec = np.fft.rfft(u)
            gam = spec[1:k + 1]
        else:
            z = np.empty(u.size, dtype=complex)
            z.real, z.imag = u, v
            spec = np.fft.fft(z)
            gam = 0.5 * (gain[1:k + 1] * spec[1:k + 1]
                         + gain[k + 1:] * np.conj(spec[:-k - 1:-1]))
        rot = gam * np.exp(1j * ks * x[1])
        grad = np.empty(self.dim)
        grad[0] = spec[0].real
        grad[2:2 + k], grad[2 + k:] = rot.real, -rot.imag
        grad[1] = -self.winding * grad[0] + ks @ (
            grad[2 + k:] * x[2:2 + k] - grad[2:2 + k] * x[2 + k:])
        return grad

    def to_map(self, x, m):
        return grid.from_samples(grid.expi(self.sample(x, m)[0]))


@dataclass
class OptimizeReport:
    """Best result of a search.

    The descents run on m_descent nodes (see _descent_grid), so trace,
    stop_reason and budget_exhausted come from that grid, and
    value_descent is the winner's value there.  value (and so gap) is the
    winner measured on the caller's m_obj; a one-sided search descends on
    m_obj, and then value == value_descent.

    nfev counts the objective evaluations of all descents; the ones a
    restarted descent replays from its tape (see _search) are not counted
    again.  nit sums each descent's iterations up to where it ended: the
    checkpoint for a cut descent, the full descent for a survivor, whose
    replayed iterations count once.  The winner's measure on m_obj counts
    as one more evaluation when m_descent < m_obj.

    gap is absolute (value - target); gap_rel is relative (gap / target).
    """

    value: float
    params: np.ndarray
    trace: list
    runs: int  # descents run: max(restarts, number of seeds)
    target: float
    gap: float  # absolute: value - target
    nfev: int
    nit: int
    cut: int = 0  # descents stopped at the race's checkpoint
    # the winning descent hit its iteration or evaluation cap
    budget_exhausted: bool = False
    stop_reason: str = ""  # the winning descent's message from scipy
    wall_s: float = 0.0  # wall time of the descents, run one after another
    m_descent: int = 0  # nodes of the descent grid
    value_descent: float = float("nan")  # the winner's value on m_descent

    @property
    def gap_rel(self):
        """Relative gap (value - target) / target; NaN when the target is 0
        (the H^{1/2} class distance)."""
        return self.gap / self.target if self.target else float("nan")


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


def _lorentzian_climb(t, centers, eta, total):
    """A phase climbing total over the circle at the Lorentzian rate
    sum_c eta / (x_c^2 + eta^2), x_c the wrapped offset of t from c: the
    rate integrated by the trapezoid rule on the uniform nodes t, from 0 at
    t = 0."""
    m = t.size
    rate = np.zeros(m)
    for c in centers:
        x = np.angle(grid.expi(t - c))
        rate += eta / (x ** 2 + eta ** 2)
    out = np.zeros(m)
    out[1:] = np.cumsum(0.5 * (rate[1:] + rate[:-1])) * (TWO_PI / m)
    out *= total / (out[-1] + 0.5 * (rate[0] + rate[-1]) * (TWO_PI / m))
    return out


def minimizing_pair_phases(d1, d2, mu=0.05, eta=0.1, m=4096):
    """Sampled phases of a near-minimizing W^{1,p} pair in classes (d1, d2).

    The difference phase is the equal-speed arcsin profile (constant |f'-g'|
    for every p), and the mean phase climbs its total pi*(d1+d2) through
    Lorentzian-rate steps (c' ~ eta/(x^2+eta^2)) centered at the points where
    f = g, where climbing is free; the Lorentzian's heavy tails keep the step
    cost O(eta).  mu mollifies the arcsin corners.
    """
    d = d1 - d2
    if d == 0:  # the seeds of a two-sided W^{1,p} search
        raise ParameterError(f"a two-sided W^{{1,p}} search needs d1 != d2, "
                             f"got d1 = d2 = {d1}")
    t = grid.nodes(m)
    diff = 2.0 * gallery.arcsin_profile(t * d)[0]  # winds d
    diff = _smooth_periodic(diff, d, mu)
    mean = np.zeros(m)
    if d1 + d2 != 0:
        centers = [TWO_PI * j / abs(d) for j in range(abs(d))]
        mean = _lorentzian_climb(t, centers, eta, PI * (d1 + d2))
    return mean + 0.5 * diff, mean - 0.5 * diff


# the gradient weight q^{p/2-1} blows up where f' = g' for p < 2, so it is
# taken as q^{p/2} / max(q, _Q_FLOOR); the value itself is never smoothed
_Q_FLOOR = 1e-12


class _Objective:
    """Distance objective over one or two phase-ansatz parameter blocks;
    a call returns the value and its exact gradient.

    Quadrature is the uniform trapezoid rule at m_obj nodes (all ansatz maps
    are smooth); the H^{1/2} branch uses the exact mode sum of the sampled
    difference.  With a fixed map f, g's ansatz moves on top of f's periodic
    part phi_f - d1 theta, so the search only has to move the slow
    component; f's phase, that shift and d1 are taken once here.
    """

    def __init__(self, index, ans_g, ans_f=None, f=None, m_obj=4096):
        self.index = index
        self.h_half = index.s == 0.5 and index.p == 2.0
        if not self.h_half and index.s != 1.0:
            raise IndexOutOfRange(
                "searchable indices are (1, p) and (1/2, 2)")
        self.m = m_obj
        if self.h_half:
            self.abs_modes = seminorms._abs_modes(m_obj)
        self.ans_g, self.ans_f = ans_g, ans_f
        if f is not None:
            fphi, fder, self.d1 = grid.phase_on_grid(f, m_obj)
            self.f_fixed = (fphi, fder)
            self.g_shift = (fphi - self.d1 * _nodes(m_obj), fder - self.d1)

    def __call__(self, x):
        xg = x[-self.ans_g.dim:]
        gphi, gder = self.ans_g.sample(xg, self.m)
        if self.ans_f is None:
            fphi, fder = self.f_fixed
            gphi += self.g_shift[0]
            gder += self.g_shift[1]
        else:
            xf = x[:self.ans_f.dim]
            fphi, fder = self.ans_f.sample(xf, self.m)
        if self.h_half:
            value, (uf, vf), (ug, vg) = self._h_half(fphi, gphi)
        else:
            value, (uf, vf), (ug, vg) = self._w1p(fphi, fder, gphi, gder)
        grad = self.ans_g.pullback(xg, ug, vg)
        if self.ans_f is not None:
            grad = np.concatenate((self.ans_f.pullback(xf, uf, vf), grad))
        return value, grad

    def _w1p(self, fphi, fder, gphi, gder):
        """W = (2 pi mean q^{p/2})^{1/p} with q = |f' - g'|^2 (by
        seminorms.speed_gap_sq), and the weights (u, v) of its gradient for
        each side: dW = pi W^{1-p} mean(q^{p/2-1} dq)."""
        p = self.index.p
        delta = fphi - gphi
        cos, sin = np.cos(delta), np.sin(delta)
        q = seminorms.speed_gap_sq(fder, gder, cos)
        qp = q ** (0.5 * p)
        value = (qp.sum() / self.m * TWO_PI) ** (1.0 / p)
        w = qp / np.maximum(q, _Q_FLOOR)
        w *= 2.0 * PI * value ** (1.0 - p) / self.m if value > 0 else 0.0
        u = w * (fder * gder) * sin
        return (value, (u, w * (fder - gder * cos)),
                (-u, w * (gder - fder * cos)))

    def _h_half(self, fphi, gphi):
        """|f - g|_{H^{1/2}} = sqrt(4 pi^2 sum |n| |H_n|^2), H = fft(f - g)/m,
        and the weights (u, None) of its gradient for each side."""
        fc, fs, gc, gs = np.cos(fphi), np.sin(fphi), np.cos(gphi), np.sin(gphi)
        diff = np.empty(self.m, dtype=complex)
        diff.real, diff.imag = fc - gc, fs - gs
        h = np.fft.fft(diff, norm="forward")
        nh = self.abs_modes * h
        # vdot, not seminorms' np.sum: a shared sum changed printed digits
        value = TWO_PI * np.sqrt(np.vdot(h, nh).real)
        # dS = (8 pi^2 / m) Re sum conj(z) d(f - g), z = sum |n| H_n e^{int}
        z = np.fft.ifft(nh, norm="forward")
        scale = 4.0 * PI ** 2 / (self.m * value) if value > 0 else 0.0
        return (value, (scale * (z.imag * fc - z.real * fs), None),
                (scale * (z.real * gs - z.imag * gc), None))


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
        bf, bg = gallery._bump_phases_1d(gallery.capacity_profiles(eps), t)
        pf, pg = (_smooth_periodic(bf, 1, 4.0 / k),
                  _smooth_periodic(bg, 0, 4.0 / k))
        seeds.append((_project_phase(pf + (d1 - 1) * t, d1, k),
                      _project_phase(pg + d2 * t, d2, k)))
    return seeds


def _one_sided_seeds(d1, d2, k, m=4096):
    """Mode seeds for g's ansatz on top of f's periodic part: relative to
    f's own phase, a deflation unwinding the winding gap in a window is the
    periodic profile (d2 - d1)(2*pi*S(t) - t)."""
    t = grid.nodes(m)
    seeds = [np.zeros(2 * k + 2)] if d1 == d2 else []
    for width, t0 in ((0.3, 0.0), (0.8, PI), (1.5, PI / 2)):
        prof = (d2 - d1) * (
            TWO_PI * gallery.smoothstep((t - t0) / width + 0.5) - t)
        seeds.append(_project_phase(prof, 0, k))
    # Lorentzian-rate unwinding (cheap tails), centered anywhere
    for eta in (3.2 / k, 6.4 / k):
        c = _lorentzian_climb(t, [PI], eta, TWO_PI)
        seeds.append(_project_phase((d2 - d1) * (c - t), 0, k))
    return seeds


def _check_search(f, k, budget, restarts, seed, m_obj):
    seminorms._require_maps("the search", f)
    for name, value, low in (("k", k, 1), ("budget", budget, 1),
                             ("restarts", restarts, 0)):
        if value < low:
            raise ParameterError(f"{name} must be at least {low}, got {value}")
    if not 0 <= seed < 2 ** 128:  # a Philox key
        raise ParameterError(f"seed must be in [0, 2^128), got {seed}")
    if 2 * k >= m_obj:
        raise ParameterError(f"k = {k} modes need an objective grid of more "
                             f"than 2k = {2 * k} nodes, got m_obj = {m_obj}")


# The race: every descent runs to the checkpoint budget // _RACE_SHARE, and
# only the _SURVIVORS lowest of those still going there run on to the
# budget; a checkpoint under _MIN_CHECKPOINT races nothing (see _search)
_RACE_SHARE = 3
_MIN_CHECKPOINT = 20
_SURVIVORS = 2


def _descent_grid(k, m_obj):
    """The nodes a two-sided search descends on: 32 per mode and at least
    1024, rounded up to a power of two, and never more than m_obj."""
    return min(m_obj, 1 << (max(1024, 32 * k) - 1).bit_length())


def _checkpoint(budget):
    """The iteration at which a search's descents race: budget //
    _RACE_SHARE, or the budget itself (no race) when that is under
    _MIN_CHECKPOINT."""
    c = budget // _RACE_SHARE
    return c if c >= _MIN_CHECKPOINT else budget


class _Run:
    """One descent of a search: its objective, start, scipy result (res),
    trace and count of real objective calls.

    On the first descent each call appends (x, value, gradient) to a tape.
    On the next, a call answers from the tape while the incoming x equals
    the recorded one (np.array_equal), so the descent retraces its recorded
    iterates without evaluating; from the first x that differs, or once
    the tape ends, it evaluates for real.
    """

    def __init__(self, objective, start):
        self.objective, self.start, self.recording = objective, start, True
        self.tape, self.calls = collections.deque(), 0
        self.res = self.trace = None

    def __call__(self, x):
        if not self.recording and self.tape:
            x_rec, value, grad = self.tape.popleft()
            if np.array_equal(x_rec, x):
                return value, grad
            self.tape.clear()  # x left the tape
        value, grad = self.objective(x)
        self.calls += 1
        if self.recording:
            self.tape.append((x.copy(), value, grad.copy()))
        return value, grad

    def descend(self, budget, maxiter):
        """One L-BFGS-B descent from the start by the module's minimize
        (see __getattr__), capped at maxiter iterations and 4 budget
        evaluations; the trace holds scipy's value at each iterate."""
        trace = []
        solve = globals().get("minimize") or __getattr__("minimize")

        def cb(intermediate_result):
            trace.append(float(intermediate_result.fun))

        self.res = solve(self, self.start, jac=True, method="L-BFGS-B",
                         callback=cb, options={"maxiter": maxiter,
                                               "maxfun": 4 * budget})
        self.trace, self.recording = trace, False

    def rank(self):
        """Lowest value first, NaN last."""
        return np.isnan(self.res.fun), self.res.fun


def _search(obj, d1, d2, x_seeds, budget, restarts, seed, measure=None):
    """Descend on obj from every seed (and from perturbed seeds up to
    restarts runs), and measure the winner on measure, an objective on a
    finer grid (None: report obj's value); the target is the W^{1,p} class
    distance of (d1, d2), or 0 for H^{1/2}.

    The descents race in two passes (successive halving in one round:
    Jamieson & Talwalkar, AISTATS 2016).  Pass 1 runs every descent to the
    checkpoint c = _checkpoint(budget), recording its tape; the first c
    iterations of a descent capped at c are those of one capped at the
    budget, bit for bit.  Pass 2 restarts from its own start each of the
    _SURVIVORS runs that were still going at c with the lowest values
    there (the earliest run on ties) and runs it to the budget, replaying
    its tape up to c.  A survivor thus ends where it would have without the
    race; the other runs still going at c are cut, and a run that stopped
    before c is final.  With c = budget nothing is raced.

    The constants come from the eventual winner's rank at iteration i in
    unraced searches, measured in README, "Optimizer search": at budget
    100 it is among the best two at i = 33 in all 252 bench searches of
    seeds 2121-2123, and at budget 20 the H^{1/2} winner is last of 4 up to
    i = 10, so a checkpoint under 20 races nothing.

    Both passes run on the calling thread, in run order, so a descent
    that raises stops the search before the next one starts.
    """
    start = time.perf_counter()
    c = _checkpoint(budget)
    runs = []
    for r in range(max(restarts, len(x_seeds))):
        x0 = np.array(x_seeds[r % len(x_seeds)], dtype=float)
        if r >= len(x_seeds):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=r))
            x0 = x0 + 0.05 * rng.standard_normal(x0.size)
        runs.append(_Run(obj, x0))
    # q^{p/2} overflows at a large p; a value that is not finite is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            run.descend(budget, c)
        # the runs still going at c; a stable sort keeps the earliest first
        racing = sorted((run for run in runs if c < budget and
                         run.res.status == 1 and run.res.nit >= c),
                        key=_Run.rank)
        survivors = racing[:_SURVIVORS]
        for run in runs:
            if run not in survivors:
                run.tape.clear()
        for run in survivors:
            run.descend(budget, budget)
        best = min(runs, key=_Run.rank)
        value = value_descent = float(best.res.fun)
        nfev = sum(run.calls for run in runs)
        if measure is not None:
            value = float(measure(best.res.x)[0])
            nfev += 1
    if not np.isfinite(value):
        raise IndexOutOfRange(f"the search value is {value} at p = "
                              f"{obj.index.p:g}: |f' - g'|^p overflows")
    target = 0.0 if obj.h_half else w1p_formula(obj.index.p, d1, d2)
    return OptimizeReport(value=value, params=np.asarray(best.res.x),
                          trace=best.trace, runs=len(runs), target=target,
                          gap=value - target, nfev=nfev,
                          nit=sum(int(run.res.nit) for run in runs),
                          cut=len(racing) - len(survivors),
                          budget_exhausted=best.res.status == 1,
                          stop_reason=str(best.res.message),
                          wall_s=time.perf_counter() - start,
                          m_descent=obj.m, value_descent=value_descent)


def estimate_inf_distance(f, d2, index, k=32, budget=2000, restarts=8,
                          seed=0, m_obj=4096):
    """Two-sided estimate of the class distance from deg(f)'s class to the
    degree-d2 class.  f supplies the starting class d1 and one projection
    seed; both endpoints move during the search, on _descent_grid(k, m_obj)
    nodes, and the winner is measured on m_obj."""
    _check_search(f, k, budget, restarts, seed, m_obj)
    ph = grid.lift(f)
    d1 = ph.winding
    ans_f, ans_g = PhaseAnsatz(d1, k), PhaseAnsatz(d2, k)
    m_d = _descent_grid(k, m_obj)
    obj = _Objective(index, ans_g, ans_f=ans_f, m_obj=m_d)
    measure = None
    if m_d < m_obj:
        measure = _Objective(index, ans_g, ans_f=ans_f, m_obj=m_obj)
    x_seeds = [np.concatenate(s) for s in _pair_seeds(d1, d2, index, k)]
    x_seeds.append(np.concatenate([
        _project_phase(ph.values, d1, k), x_seeds[0][ans_f.dim:]]))
    return _search(obj, d1, d2, x_seeds, budget, restarts, seed, measure)


def estimate_point_to_class(f, d2, index, k=32, budget=2000, restarts=8,
                            seed=0, m_obj=4096):
    """One-sided estimate of inf over the degree-d2 class of |f - g|,
    with f held fixed; the class distance is a lower bound for any fixed f
    in its class, and is the reported target.  The descents run on m_obj
    itself: f's kinks make the landscape depend on the grid."""
    _check_search(f, k, budget, restarts, seed, m_obj)
    obj = _Objective(index, PhaseAnsatz(d2, k), f=f, m_obj=m_obj)
    return _search(obj, obj.d1, d2, _one_sided_seeds(obj.d1, d2, k), budget,
                   restarts, seed)


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


def attainment_probe(d1, p, budget=2000, k=32, seed=0):
    """Probe whether the W^{1,p} class-distance infimum is attained.

    p = 1: evaluates the exact zigzag witness (attained).  1 < p < 2: runs
    against d2 = -d1 and reports the gauge-aligned closeness to the explicit
    minimizer (attained).  p >= 2: runs (d1, 0) at two budgets and reports
    the growth of max|psi'| (concentration = non-attainment signature).
    Each search takes 3 runs on a 2048-node objective grid.
    """
    index = SobolevIndex(1.0, p)  # rejects p < 1
    if p == 1.0:
        pair = gallery.zigzag_pair(d1, 0)
        value = seminorms.w1p_distance(pair.f, pair.g, 1.0)
        return {"value": value, "target": 4.0 * abs(d1)}
    if p < 2.0:
        d2 = -d1
        rep = estimate_inf_distance(grid.power_map(d1), d2, index, k=k,
                                    budget=budget, seed=seed, restarts=3,
                                    m_obj=2048)
        ans_f, ans_g = PhaseAnsatz(d1, k), PhaseAnsatz(d2, k)
        xf, xg = rep.params[: ans_f.dim], rep.params[ans_f.dim:]
        ref = gallery.attainment_pair(d1, p)
        close = gauge_aligned_l2(ans_f.to_map(xf, ref.f.m),
                                 ans_g.to_map(xg, ref.f.m), ref.f, ref.g)
        return {"value": rep.value, "target": rep.target,
                "gap_rel": rep.gap_rel, "l2_to_minimizer": close}
    stages = []
    for mult, kk in ((1, k), (4, 4 * k)):
        rep = estimate_inf_distance(grid.power_map(d1), 0, index, k=kk,
                                    budget=mult * budget, seed=seed,
                                    restarts=3, m_obj=2048)
        ans_f, ans_g = PhaseAnsatz(d1, kk), PhaseAnsatz(0, kk)
        xf, xg = rep.params[: ans_f.dim], rep.params[ans_f.dim:]
        sharp = max(float(np.max(np.abs(ans.sample(x, 8192)[1])))
                    for ans, x in ((ans_f, xf), (ans_g, xg)))
        stages.append({"max_dpsi": sharp, "gap_rel": rep.gap_rel})
    return {"value": rep.value, "target": w1p_formula(p, d1, 0),
            "stages": stages}
