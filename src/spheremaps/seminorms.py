"""Semi-norms and distances on S^1: W^{1,p}, Gagliardo W^{s,p}, H^{1/2}, sup.

The Fourier form is the canonical H^{1/2} value; the Gagliardo double sum
(with periodic arc-length kernel) is calibrated against it by a measured
ratio, see calibration_ratio.
"""

from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import (GridMismatch, IndexOutOfRange, MissingDerivative,
                     NotACircleMap)
from .grid import TWO_PI, CircleMap, SobolevIndex

PI = np.pi


@dataclass(frozen=True)
class SeminormResult:
    value: float
    index: SobolevIndex
    grid: int
    method: str  # w1p_quadrature | gagliardo_quadrature | fourier_h_half | sup_norm


def _values(h):
    return h.samples if isinstance(h, CircleMap) else np.asarray(h)


def _smoothness_guard(f):
    """Raise MissingDerivative when samples are visibly non-smooth."""
    a = np.fft.fft(f.samples) / f.m
    n = grid.fourier_modes(f.m)
    energy = (np.abs(n) * np.abs(a)) ** 2
    total = np.sum(energy)
    if total > 1e-20 and np.sum(energy[np.abs(n) > f.m // 4]) / total > 1e-3:
        raise MissingDerivative(
            "map looks non-smooth on this grid; supply analytic derivatives")


def _resolve_phases(f, g, derivs=None):
    """Phase models for (f, g): supplied, attached, or spline-fitted."""
    pf = pg = None
    if derivs is not None:
        pf, pg = derivs
    pf = pf or f.phase
    pg = pg or g.phase
    if pf is None and pg is None:
        return None, None  # both smooth-sampled: caller uses spectral route
    if pf is None:
        pf = grid.phase_model_from_map(f)
    if pg is None:
        pg = grid.phase_model_from_map(g)
    return pf, pg


def _phase_integrand(pf, pg, t, p):
    dphi = pf.deriv(t)
    dpsi = pg.deriv(t)
    gap = pf.value(t) - pg.value(t)
    sq = dphi ** 2 + dpsi ** 2 - 2.0 * dphi * dpsi * np.cos(gap)
    return grid.patch_nonfinite(np.maximum(sq, 0.0)) ** (p / 2.0)


def w1p_distance(f, g, p, derivs=None):
    """( int |f' - g'|^p )^{1/p} over S^1.

    Piecewise-smooth phases (supplied via derivs, or attached to the maps)
    are integrated segment-by-segment between their breakpoints, so kinks
    cost no accuracy.  Smooth sampled maps fall back to spectral derivatives.
    """
    if f.m != g.m:
        raise GridMismatch(f"grids differ: {f.m} vs {g.m}")
    if p < 1:
        raise IndexOutOfRange(f"need p >= 1, got {p}")
    pf, pg = _resolve_phases(f, g, derivs)
    if pf is None:
        _smoothness_guard(f)
        _smoothness_guard(g)
        dv = grid.spectral_derivative(f.samples) - grid.spectral_derivative(g.samples)
        integral = float(np.mean(np.abs(dv) ** p)) * TWO_PI
        return integral ** (1.0 / p)

    edges = np.concatenate(([0.0], pf.breakpoints, pg.breakpoints, [TWO_PI]))
    edges = np.unique(edges)
    base = f.theta
    integral = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-14:
            continue
        nudge = 1e-9 * (b - a)
        inner = base[(base > a + nudge) & (base < b - nudge)]
        t = np.concatenate(([a + nudge], inner, [b - nudge]))
        integral += np.trapezoid(_phase_integrand(pf, pg, t, p), t)
    return integral ** (1.0 / p)


def sup_distance(f, g):
    """max_j |f_j - g_j| (the L^infty distance on the grid)."""
    if f.m != g.m:
        raise GridMismatch(f"grids differ: {f.m} vs {g.m}")
    return float(np.max(np.abs(f.samples - g.samples)))


def h_half_seminorm_sq(h):
    """|h|^2 in the Fourier form 4*pi^2 * sum |n| |a_n|^2.

    Accepts a CircleMap or a plain grid function (e.g. a difference f - g).
    """
    v = _values(h)
    a = np.fft.fft(v) / v.size
    n = grid.fourier_modes(v.size)
    return float(4.0 * np.pi ** 2 * np.sum(np.abs(n) * np.abs(a) ** 2))


def gagliardo_seminorm(h, s, p):
    """Gagliardo W^{s,p} semi-norm by the periodic double sum.

    Kernel distance is arc length on S^1; the diagonal is excluded and the
    nearest-neighbor term reduces to the difference-quotient convention.
    Summation is per-offset then pairwise, so the result is deterministic.
    """
    if not (0.0 < s < 1.0):
        raise IndexOutOfRange(f"Gagliardo index needs 0 < s < 1, got {s}")
    if p < 1:
        raise IndexOutOfRange(f"need p >= 1, got {p}")
    v = _values(h)
    m = v.size
    dtheta = TWO_PI / m
    k = np.arange(1, m)
    dist = dtheta * np.minimum(k, m - k)
    offset_sums = np.empty(m - 1)
    for i, kk in enumerate(k):
        offset_sums[i] = np.sum(np.abs(v - np.roll(v, -kk)) ** p)
    total = np.sum(offset_sums / dist ** (1.0 + s * p)) * dtheta ** 2
    return total ** (1.0 / p)


def gagliardo_nonuniform(values, thetas, s, p):
    """Gagliardo double sum on arbitrary sorted nodes in [0, 2*pi).

    Trapezoid weights in both variables; used for profiles whose activity
    lives on scales a uniform grid cannot reach (log-spaced nodes).
    """
    if not (0.0 < s < 1.0):
        raise IndexOutOfRange(f"Gagliardo index needs 0 < s < 1, got {s}")
    v = np.asarray(values, dtype=float)
    t = np.asarray(thetas, dtype=float)
    gaps = np.diff(np.concatenate((t, [t[0] + TWO_PI])))
    w = 0.5 * (gaps + np.roll(gaps, 1))
    diff = np.abs(v[:, None] - v[None, :])
    raw = np.abs(t[:, None] - t[None, :])
    dist = np.minimum(raw, TWO_PI - raw)
    np.fill_diagonal(dist, 1.0)
    kern = diff ** p / dist ** (1.0 + s * p)
    np.fill_diagonal(kern, 0.0)
    total = float(w @ kern @ w)
    return total ** (1.0 / p)


def gagliardo_even(values, radii, s, p):
    """Gagliardo semi-norm on the circle of an even profile h(theta) =
    H(|theta|) sampled at radius nodes in (0, pi].

    Works directly on the half-domain with the reflected kernel
    k(|x-y|) + k(x+y), so nodes can sit arbitrarily deep (e.g. 1e-19)
    without the cancellation a mirrored 2*pi - r node set would suffer.
    """
    if not (0.0 < s < 1.0):
        raise IndexOutOfRange(f"Gagliardo index needs 0 < s < 1, got {s}")
    v = np.asarray(values, dtype=float)
    r = np.asarray(radii, dtype=float)
    gaps = np.diff(np.concatenate(([0.0], r, [PI])))
    w = 0.5 * (gaps[:-1] + gaps[1:])
    diff = np.abs(v[:, None] - v[None, :]) ** p
    direct = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(direct, 1.0)
    kern = 1.0 / direct ** (1.0 + s * p)
    np.fill_diagonal(kern, 0.0)
    summed = r[:, None] + r[None, :]
    arc = np.minimum(summed, TWO_PI - summed)
    kern += 1.0 / arc ** (1.0 + s * p)
    total = 2.0 * float(w @ (diff * kern) @ w)
    return total ** (1.0 / p)


def calibration_ratio(m=8192):
    """Measured ratio (arc-kernel Gagliardo)^2 / (Fourier H^{1/2})^2 on e^{i theta}.

    The ratio is frequency-dependent, so it is defined on the mode-1 family;
    it is stable under rotations and phase shifts of that family.
    """
    f = grid.power_map(1, m)
    g2 = gagliardo_seminorm(f, 0.5, 2.0) ** 2
    return g2 / h_half_seminorm_sq(f)


def pointwise_identity_check(f, g, derivs=None):
    """Max residual of |f'-g'|^2 = cos^2((phi-psi)/2)(phi'-psi')^2
    + sin^2((phi-psi)/2)(phi'+psi')^2 over the grid."""
    pf, pg = _resolve_phases(f, g, derivs)
    if pf is None:
        # smooth sampled pair: sample-derivative route on the grid nodes vs
        # the spline phase route
        pf = grid.phase_model_from_map(f)
        pg = grid.phase_model_from_map(g)
        t = f.theta
        lhs = np.abs(grid.spectral_derivative(f.samples)
                     - grid.spectral_derivative(g.samples)) ** 2
        phi, psi = pf.value(t), pg.value(t)
        dphi, dpsi = pf.deriv(t), pg.deriv(t)
    else:
        t = f.theta + 0.5 * TWO_PI / f.m  # midpoints dodge on-node breakpoints
        for b in np.concatenate((pf.breakpoints, pg.breakpoints)):
            t[np.abs(t - b) < 1e-12] += 1e-7
        phi, psi = pf.value(t), pg.value(t)
        dphi, dpsi = pf.deriv(t), pg.deriv(t)
        lhs = np.abs(1j * dphi * np.exp(1j * phi) - 1j * dpsi * np.exp(1j * psi)) ** 2
    half = 0.5 * (phi - psi)
    rhs = np.cos(half) ** 2 * (dphi - dpsi) ** 2 + np.sin(half) ** 2 * (dphi + dpsi) ** 2
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    return float(np.max(np.abs(lhs[ok] - rhs[ok])))


def seminorm(h, index, method, g=None, m=None):
    """Uniform entry point returning a SeminormResult (used by the CLI)."""
    for v in (h, g):
        if v is not None and not isinstance(v, CircleMap) and np.ndim(v) != 1:
            raise NotACircleMap(
                f"semi-norms take circle maps, got {type(v).__name__}")
    if method == "w1p_quadrature":
        val = w1p_distance(h, g if g is not None else grid.power_map(0, h.m),
                           index.p)
    elif method == "gagliardo_quadrature":
        v = h if g is None else _values(h) - _values(g)
        val = gagliardo_seminorm(v, index.s, index.p)
    elif method == "fourier_h_half":
        v = h if g is None else _values(h) - _values(g)
        val = np.sqrt(h_half_seminorm_sq(v))
    elif method == "sup_norm":
        val = sup_distance(h, g) if g is not None else float(
            np.max(np.abs(_values(h))))
    else:
        raise ValueError(f"unknown method {method!r}")
    size = h.m if isinstance(h, CircleMap) else _values(h).size
    return SeminormResult(float(val), index, size, method)
