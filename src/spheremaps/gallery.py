"""Explicit extremal and approximating circle-map families.

Every piecewise-linear construction carries its exact analytic phase and
derivative so quadrature can integrate segment-by-segment between kinks.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import grid, params, sphere2
from .errors import (IndexOutOfRange, NotLocallyConstant, Overcrowded,
                     ParameterError)
from .grid import PI, TWO_PI, CircleMap, phase_model


@dataclass(frozen=True)
class GalleryPair:
    f: CircleMap
    g: CircleMap
    claim: str  # tag of the expected distance formula
    claim_index: tuple = None  # (s, p, seminorm method) the claim is about


def smoothstep(t):
    """C^infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.clip(t, 1e-300, None)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.clip(1.0 - t, 1e-300, None)), 0.0)
    return a / (a + b)


def dsmoothstep(t):
    """smoothstep'(t) = s (1 - s) (1/t^2 + 1/(1 - t)^2), s = smoothstep(t)."""
    s = smoothstep(t)
    # s (1 - s) is exactly 0 outside (1e-3, 1 - 1e-3), where exp(-1000)
    # underflows, so the clip only keeps 1/t^2 finite
    u = np.clip(t, 1e-3, 1.0 - 1e-3)
    return s * (1.0 - s) * (1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2)


def cap_k(t):
    """Smooth non-increasing cap: 1 for t <= 1/4, 0 for t >= 3/4."""
    return 1.0 - smoothstep((np.asarray(t, dtype=float) - 0.25) / 0.5)


def _wrap(x):
    """Wrap angles to (-pi, pi]."""
    return PI - np.mod(PI - np.asarray(x, dtype=float), TWO_PI)


def _linear_phase(knots, values):
    """Phase model of the polyline through (knots, values), with knots
    rising from 0 to 2*pi; at a knot the derivative is the slope on the
    right."""
    x, y = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
    slopes = np.diff(y) / np.diff(x)

    def deriv(t):
        i = np.searchsorted(x, np.asarray(t, dtype=float), "right") - 1
        return slopes[np.clip(i, 0, slopes.size - 1)]

    return phase_model(lambda t: np.interp(t, x, y), deriv, x[1:-1],
                       round((y[-1] - y[0]) / TWO_PI))


# ---------------------------------------------------------------------------
# zigzag pair: |f' - g'| integrates to exactly 4|d1 - d2| in W^{1,1}

def zigzag_pair(d1, d2, m=None):
    """The zigzag pair (f, g) in classes (d1, d2) with W^{1,1} gap 4|d1-d2|.

    f has constant slope L = |d1-d2| + 1 on an initial arc; g traces the same
    arc as a zigzag of |d1-d2| triangles (g = f on the rising teeth, g = conj f
    on the falling ones), then both coincide up to the constant 2*pi*(d1-d2).
    """
    d1, d2 = int(d1), int(d2)
    if d1 == d2:
        raise ValueError("zigzag pair needs d1 != d2")
    if d1 < d2:
        p = zigzag_pair(d2, d1, m)
        return replace(p, f=p.g, g=p.f)
    if d1 <= 0:
        p = zigzag_pair(-d1, -d2, m)
        return replace(p, f=grid.conjugate(p.f), g=grid.conjugate(p.g))

    d = d1 - d2
    L = d + 1
    pf = _linear_phase([0.0, 2.0 * d * PI / L, TWO_PI],
                       [0.0, TWO_PI * d, TWO_PI * d1])
    teeth = grid.breakpoint_range(0, 2 * d + 1)  # g = 0, pi, ..., 0 at k pi/L
    pg = _linear_phase(np.append(teeth * (PI / L), TWO_PI),
                       np.append(PI * (teeth % 2), TWO_PI * d2))
    return GalleryPair(grid.from_phase(pf, m), grid.from_phase(pg, m),
                       "w11_zigzag_4d", (1.0, 1.0, "w1p_quadrature"))


# ---------------------------------------------------------------------------
# phase deflation: unwind d turns on a short arc where f is constant

def deflate_phase(f, d, lam):
    """g = f * exp(-2*pi*d*i*min(theta,lam)/lam): deg g = deg f - d.

    Requires f constant on [0, lam]; there |f' - g'| = 2*pi*|d|/lam, so the
    W^{1,1} gap is exactly 2*pi*|d|.
    """
    d = int(d)
    if not (0.0 < lam < TWO_PI):
        raise ValueError("need 0 < lam < 2*pi")
    on_arc = f.samples[f.theta <= lam]
    if on_arc.size and np.max(np.abs(on_arc - on_arc[0])) > 1e-9:
        raise NotLocallyConstant("f varies on [0, lam]")

    twist = _linear_phase([0.0, lam, TWO_PI], [0.0, -TWO_PI * d, -TWO_PI * d])
    return grid.product(f, grid.from_phase(twist, f.m))


def ramp_map(d, gap=0.5, m=None):
    """Smooth degree-d map constant (= 1) on [0, gap] and near 2*pi."""
    d = int(d)
    if not (0.0 <= gap < PI):
        raise ParameterError(f"ramp needs 0 <= gap < pi, got {gap:g}")
    width = TWO_PI - 2.0 * gap

    def phi(t):
        return 2.0 * PI * d * smoothstep((np.asarray(t, float) - gap) / width)

    def dphi(t):
        return TWO_PI * d * dsmoothstep(
            (np.asarray(t, float) - gap) / width) / width

    return grid.from_phase(phase_model(phi, dphi, winding=d), m)


# ---------------------------------------------------------------------------
# oscillator: n^2 sawtooth pairs with slopes d1*n and -d1*(n-2)

def oscillator(d1, n, m=None):
    """Degree-d1 map whose phase zigzags over n^2 interval pairs.

    Each pair has length 2*pi/n^2, split in equal halves of slope d1*n and
    -d1*(n-2); the total variation of the phase is 2*(n-1)*pi*d1 while the
    net increment stays 2*pi*d1.
    """
    d1, n = int(d1), int(n)
    if n < 3:
        raise ValueError("need n >= 3")
    pair = TWO_PI / n ** 2
    half = 0.5 * pair
    up, down = d1 * n, -d1 * (n - 2)

    def phi(t):
        t = np.asarray(t, dtype=float)
        j = np.floor(t / pair)
        u = t - j * pair
        base = j * (up * half + down * half)  # = j * 2*pi*d1/n^2
        return base + np.where(u < half, up * u, up * half + down * (u - half))

    def dphi(t):
        u = np.mod(np.asarray(t, dtype=float), pair)
        return np.where(u < half, float(up), float(down))

    kinks = grid.breakpoint_range(1, 2 * n ** 2) * half
    return grid.from_phase(phase_model(phi, dphi, kinks, d1), m)


# ---------------------------------------------------------------------------
# the attainment pair

def arcsin_profile(dt):
    """(arcsin(s/pi) + pi*k, s) for dt = s + 2*pi*k, k the nearest integer:
    the equal-speed profile, climbing pi per 2*pi of dt, whose phases
    +-phi(d theta) keep |f' - g'| = 2 |phi' cos phi| constant. s/pi is
    clipped to [-1, 1], which rounding may leave by an ulp."""
    k = np.round(dt / TWO_PI)
    s = dt - TWO_PI * k
    return np.arcsin(np.clip(s / PI, -1.0, 1.0)) + PI * k, s


def attainment_pair(d1, p, m=None):
    """The extremal pair attaining the W^{1,p} class distance for d2 = -d1.

    f is the half-phase square root of w = S(e^{i d theta}) with d = 2*d1,
    g = conj(f); then f' - g' has constant modulus 2d/pi, so the distance
    equals 2^{1/p+1} pi^{1/p-1} * |d1 - d2| on the nose.
    """
    d1 = int(d1)
    if not (1.0 < p < 2.0):
        raise IndexOutOfRange("attainment pair exists only for 1 < p < 2")
    if d1 == 0:
        raise ValueError("need d1 != 0")
    d = 2 * d1

    def phi(t):
        return arcsin_profile(np.asarray(t, dtype=float) * d)[0]

    def dphi(t):
        s = arcsin_profile(np.asarray(t, dtype=float) * d)[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            return d / (PI * np.sqrt(np.maximum(1.0 - (s / PI) ** 2, 0.0)))

    sings = (2.0 * grid.breakpoint_range(0, abs(d)) + 1.0) * PI / abs(d)
    f = grid.from_phase(phase_model(phi, dphi, sings, d1), m)
    return GalleryPair(f, grid.conjugate(f), "w1p_formula",
                       (1.0, p, "w1p_quadrature"))


# ---------------------------------------------------------------------------
# Blaschke powers

def blaschke_pow(d, delta, m=None):
    """h(z) = ((z - (1-delta)) / ((1-delta) z - 1))^{-d}, degree -d.

    Evaluated by phase accumulation (lift the Moebius factor, multiply the
    phase by -d) so small delta and large d cannot cancel catastrophically.
    The default grid has at least 64|d|/delta nodes: the Fourier tail of h
    decays like (1 - delta)^n, so aliasing stays near e^{-64}.
    """
    d = int(d)
    if not (0.0 < delta < 1.0):
        raise ValueError("need 0 < delta < 1")
    if m is None:
        m = grid.pow2_size(64.0 * abs(d) / delta)
    z = grid.expi(grid.nodes(m))
    a = 1.0 - delta
    w = (z - a) / (a * z - 1.0)
    ph = grid.lift(grid.from_samples(w))
    return grid.from_samples(grid.expi(-d * ph.values))


# ---------------------------------------------------------------------------
# capacity profiles and the critical bump pair

@dataclass(frozen=True)
class CapacityProfiles:
    """Radial profiles driving the critical-norm bump constructions.

    H: log-log cutoff equal to 1 on r <= eps and 0 on r >= sqrt(eps), built
    on the smooth cap cap_k; F, G: bump phases with F = G on r < eps and
    F + G = pi on r >= eps.
    """

    eps: float

    def H(self, r):
        r = np.asarray(r, dtype=float)
        eps = self.eps
        out = np.zeros_like(r)
        out[r <= eps] = 1.0
        mid = (r > eps) & (r < np.sqrt(eps))
        if mid.any():
            rr = r[mid]
            arg = 0.25 - np.log(np.log(1.0 / rr) / np.log(1.0 / eps)) / (2.0 * np.log(2.0))
            out[mid] = cap_k(arg)
        return out

    def F(self, r):
        return self.profiles(r)[0]

    def G(self, r):
        return self.profiles(r)[1]

    def profiles(self, r):
        """(F(r), G(r)) from one evaluation of H and of the eps-cap."""
        r = np.asarray(r, dtype=float)
        h = self.H(r)
        inner = r < self.eps
        core = PI * (1.0 - cap_k(r[inner] / self.eps)) / 2.0
        f = np.asarray(PI * (1.0 - h / 2.0))  # 0-d stays an array
        g = np.asarray(PI * h / 2.0)
        f[inner] = core
        g[inner] = core
        return f, g


def capacity_profiles(eps):
    if not (0.0 < eps < np.exp(-2.0)):
        raise IndexOutOfRange("need 0 < eps < exp(-2)")
    return CapacityProfiles(float(eps))


def _grid_keys(n_dim, m, n_phi):
    """Reject an n_dim other than 1 or 2, and the grid size of the dimension
    not chosen: m sizes a circle grid (n_dim = 1), n_phi a sphere grid."""
    if n_dim not in (1, 2):
        raise ValueError("n_dim must be 1 or 2")
    if n_dim == 1 and n_phi is not None:
        raise ParameterError("nphi sizes an S^2 grid; it needs ndim=2")
    if n_dim == 2 and m is not None:
        raise ParameterError("m sizes a circle grid; it needs ndim=1")


def _bump_phases_1d(prof, theta):
    """The bump pair's phases -pi/2 + sign(x) (F, G)(|x|) on the circle,
    with x = theta - pi the arc offset."""
    x = np.asarray(theta, dtype=float) - PI
    return [-PI / 2.0 + np.sign(x) * pr for pr in prof.profiles(np.abs(x))]


def bump_pair(eps, n_dim=1, m=None, n_phi=None):
    """The bump pair (f, g) with degrees (1, 0) whose difference lives in the
    last coordinate only and shrinks in the critical norm as eps -> 0.

    The default circle grid has at least 50/eps nodes (and 2^17), so the
    core |theta - pi| < eps spans at least 50/pi, about 16, nodes.
    """
    _grid_keys(n_dim, m, n_phi)
    prof = capacity_profiles(eps)
    if n_dim == 1:
        if m is None:
            m = grid.pow2_size(50.0 / eps, floor=1 << 17)
        f, g = (grid.from_samples(grid.expi(phase))
                for phase in _bump_phases_1d(prof, grid.nodes(m)))
        return GalleryPair(f, g, "critical_bump", (0.5, 2.0, "fourier_h_half"))
    return sphere2.bump_pair_s2(prof, n_phi=n_phi)


# ---------------------------------------------------------------------------
# multi-bump, dense-onto, product-shift

def multi_bump(d, n_dim=1, n=32, m=None, n_phi=None):
    """Degree-d map equal to a constant outside d disjoint balls of radius 1/n."""
    d, n = int(d), int(n)
    if d == 0:
        raise ValueError("need d != 0")
    if n < 1:  # the bump radius is 1/n
        raise ParameterError(f"multibump needs n >= 1, got {n}")
    _grid_keys(n_dim, m, n_phi)
    if n_dim == 2:
        return sphere2.multi_bump_s2(d, n, n_phi=n_phi)
    k = abs(d)
    r = 1.0 / n
    spacing = TWO_PI / k
    if 2.0 * r >= spacing:
        raise Overcrowded(f"{k} bumps of radius {r} do not fit disjointly")
    centers = (grid.breakpoint_range(0, k) + 0.5) * spacing
    sgn = 1 if d > 0 else -1

    def total(t, step):
        t = np.asarray(t, dtype=float)
        return sum(step((_wrap(t - c) + r) / (2.0 * r)) for c in centers)

    def phi(t):  # a bump's phase rises 0 -> 2*pi across [-r, r]
        return sgn * total(t, lambda u: TWO_PI * smoothstep(u))

    def dphi(t):
        return sgn * PI / r * total(t, dsmoothstep)

    # the summed phase has harmless 2*pi jumps antipodal to each center;
    # declare them so segment quadrature never straddles one
    jumps = np.mod(centers + PI, TWO_PI)
    return grid.from_phase(phase_model(phi, dphi, jumps, d), m)


def dense_onto(d1, n, m=None):
    """Degree-d1 map that covers the whole circle inside every arc of radius 1/n."""
    d1, n = int(d1), int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = 4 * n  # oscillation count: one full period fits in each 2/n window
    amp = PI + 1.0
    if m is None:
        m = grid.pow2_size(TWO_PI * (abs(d1) + amp * j) / 0.005)

    def phi(t):
        t = np.asarray(t, dtype=float)
        return d1 * t + amp * np.sin(j * t)

    def dphi(t):
        return d1 + amp * j * np.cos(j * np.asarray(t, dtype=float))

    return grid.from_phase(phase_model(phi, dphi, winding=d1), m)


def product_shift(d1, d2, m=None):
    """Pair f = h^{d1-d2} * g with h active on the right half-circle and
    g active on the left, so f - g = (h^{d1-d2} - 1) * g is one-sided."""
    d1, d2 = int(d1), int(d2)

    def rise(t):  # 0 -> 1 across the right half-circle, flat on the left
        return (_wrap(t) + PI / 2.0) / PI

    def h_phi(t):
        t = np.asarray(t, dtype=float)
        return TWO_PI * (smoothstep(rise(t)) + np.floor((t + PI) / TWO_PI))

    def dh_phi(t):
        return 2.0 * dsmoothstep(rise(t))

    def g_phi(t):
        return TWO_PI * d2 * smoothstep((np.asarray(t, float) - PI / 2.0) / PI)

    def dg_phi(t):
        return 2.0 * d2 * dsmoothstep((np.asarray(t, float) - PI / 2.0) / PI)

    h = grid.from_phase(phase_model(h_phi, dh_phi, winding=1), m)
    g = grid.from_phase(phase_model(g_phi, dg_phi, winding=d2), m)
    f = grid.product(grid.power(h, d1 - d2), g)
    return GalleryPair(f, g, "product_shift", (1.0, 1.0, "w1p_quadrature"))


# ---------------------------------------------------------------------------
# the plateau pair

def plateau_pair(d1, d2, a=PI, m=None):
    """Pair with phi rising to 2*pi*d1 on [0, a] then flat, psi continuing to
    2*pi*d2; attains the one-sided W^{1,1} distance 2*pi*(d2 - d1)."""
    d1, d2 = int(d1), int(d2)
    if not 0 < d1 < d2:
        raise ValueError("plateau pair needs 0 < d1 < d2")
    f, g = (grid.from_phase(_linear_phase([0.0, a, TWO_PI],
                                          [0.0, TWO_PI * d1, TWO_PI * dv]), m)
            for dv in (d1, d2))
    return GalleryPair(f, g, "plateau_2pid", (1.0, 1.0, "w1p_quadrature"))


# ---------------------------------------------------------------------------
# randomized smooth representatives (test/optimizer seeds) and the registry

def random_map(d, rng, kmax=8, amp=0.5, m=None):
    """Random smooth degree-d map: phase d*theta plus a low-mode trig series.

    The series sum_k a_k cos(k t) + b_k sin(k t) is Re sum_k c_k z^k with
    c_k = a_k - i b_k and z = e^{it}, summed by Horner's rule: one complex
    exponential per evaluation instead of 2 kmax sines and cosines.
    """
    coef = amp * rng.standard_normal(2 * kmax) / (1 + np.arange(2 * kmax) // 2) ** 2
    c = coef[0::2] - 1j * coef[1::2]

    def series(t, weights):
        z = grid.expi(t)
        acc = 0.0
        for w in weights[::-1]:
            acc = (acc + w) * z
        return acc.real

    def phi(t):
        return d * np.asarray(t, dtype=float) + series(t, c)

    def dphi(t):
        return d + series(t, 1j * np.arange(1, kmax + 1) * c)

    return grid.from_phase(phase_model(phi, dphi, winding=d), m)


# name -> (builder, parameter table for params.coerce); the table keys are
# the spec keys, passed to the builder by keyword
MAPS = {
    "power": (grid.power_map, {"d": int, "m": None}),
    "blaschke": (blaschke_pow, {"d": int, "delta": float, "m": None}),
    "oscillator": (oscillator, {"d1": int, "n": int, "m": None}),
    "multibump": (
        lambda d, ndim, n, nphi, m: multi_bump(d, ndim, n, m, nphi),
        {"d": int, "ndim": 1, "n": 32, "nphi": None, "m": None}),
    "denseonto": (dense_onto, {"d1": int, "n": int, "m": None}),
    "ramp": (ramp_map, {"d": int, "gap": 0.5, "m": None}),
    "deflate": (
        lambda d1, d, gap, lam, m: deflate_phase(ramp_map(d1, gap, m), d, lam),
        {"d1": int, "d": int, "gap": 0.5, "lam": 0.1, "m": None}),
    "suspension": (
        lambda k, dh, nphi: sphere2.suspension(
            sphere2.default_suspension(k, dh), n_phi=nphi),
        {"k": 1, "dh": 1, "nphi": None}),
    "stereo": (lambda d, nphi: sphere2.stereographic_power(d, n_phi=nphi),
               {"d": int, "nphi": None}),
}

PAIRS = {
    "zigzag": (zigzag_pair, {"d1": int, "d2": int, "m": None}),
    "attainment": (attainment_pair, {"d1": int, "p": 1.5, "m": None}),
    "bump": (lambda eps, ndim, m: bump_pair(eps, ndim, m),
             {"eps": float, "ndim": 1, "m": None}),
    "productshift": (product_shift, {"d1": int, "d2": int, "m": None}),
    "plateau": (plateau_pair, {"d1": int, "d2": int, "m": None}),
    "vo1": (lambda d1, d2, nphi: sphere2.vo1_pair(d1, d2, n_phi=nphi),
            {"d1": int, "d2": int, "nphi": None}),
}


def _build(registry, kind, name, m, kw):
    if name not in registry:
        raise KeyError(f"unknown {kind} name '{name}'; known: "
                       f"{', '.join(registry)}")
    builder, table = registry[name]
    raw = kw if m is None else dict(kw, m=m)
    return builder(**params.coerce(table, raw, f"{kind} '{name}'"))


def build_map(name, m=None, **kw):
    """Gallery registry for single maps, addressable by name + parameters."""
    return _build(MAPS, "map", name, m, kw)


def build_pair(name, m=None, **kw):
    """Gallery registry for pairs."""
    return _build(PAIRS, "pair", name, m, kw)
