"""Circle-valued maps on uniform grids: lifting, winding numbers, Fourier tools.

A map S^1 -> S^1 is stored as complex samples on the uniform grid
theta_j = 2*pi*j/M.  Degrees are computed three independent ways (phase
lifting, the Kronecker integral, and the Fourier mode sum) so the routes can
cross-check each other.
"""

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatch, GridTooCoarse, MissingDerivative

TWO_PI = 2.0 * np.pi


def default_m():
    """Grid size used when none is given (env var HG_GRID_M overrides)."""
    return int(os.environ.get("HG_GRID_M", "4096"))


def _check_m(m):
    if m < 16 or (m & (m - 1)) != 0:
        raise GridTooCoarse(f"grid size must be a power of two >= 16, got {m}")


def nodes(m):
    """Uniform grid theta_j = 2*pi*j/M, j = 0..M-1."""
    _check_m(m)
    return TWO_PI * np.arange(m) / m


def patch_nonfinite(v, x=None):
    """Replace non-finite entries by linear interpolation between their
    finite neighbors over the abscissae x (the index when x is None)."""
    bad = ~np.isfinite(v)
    if bad.any():
        x = np.arange(v.size) if x is None else x
        v = np.interp(x, x[~bad], v[~bad])
    return v


@dataclass(frozen=True)
class PhaseModel:
    """Closed-form phase theta -> phi(theta) of a circle map.

    value and deriv are vectorized callables on [0, 2*pi]; breakpoints lists
    the kink locations of a piecewise-smooth phase (empty when smooth);
    winding is (phi(2*pi) - phi(0)) / (2*pi).
    """

    value: Callable
    deriv: Callable
    breakpoints: np.ndarray
    winding: int


def phase_model(value, deriv, breakpoints=(), winding=0):
    bp = np.sort(np.asarray(breakpoints, dtype=float)) % TWO_PI
    return PhaseModel(value, deriv, np.unique(bp), int(winding))


@dataclass(frozen=True)
class CircleMap:
    """Unit-modulus samples on the uniform grid, with an optional phase model."""

    samples: np.ndarray
    phase: Optional[PhaseModel] = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        _check_m(s.size)
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        drift = np.max(np.abs(np.abs(s) - 1.0))
        if drift > 1e-12:
            raise ValueError(f"samples leave the unit circle by {drift:.3e}")
        object.__setattr__(self, "samples", s)

    @property
    def m(self):
        return self.samples.size

    @property
    def theta(self):
        return nodes(self.m)


def from_phase(phase, m=None):
    """Build a CircleMap exp(i*phi(theta_j)) from a PhaseModel."""
    m = default_m() if m is None else m
    return CircleMap(np.exp(1j * phase.value(nodes(m))), phase=phase)


def from_samples(samples):
    """Project samples onto the unit circle; a zero sample has no direction."""
    s = np.asarray(samples, dtype=complex)
    r = np.abs(s)
    if np.any(r == 0.0):
        raise ValueError("a zero sample cannot be projected onto the circle")
    return CircleMap(s / r)


def power_map(d, m=None):
    """The canonical representative theta -> exp(i*d*theta) of class d."""
    d = int(d)
    pm = phase_model(lambda t: d * t, lambda t: np.full_like(t, float(d)),
                     winding=d)
    return from_phase(pm, m)


@dataclass(frozen=True)
class Phase:
    """A continuous lift of a circle map: phase samples plus its winding."""

    values: np.ndarray
    winding: int


@dataclass(frozen=True)
class FourierSeries:
    """Discrete Fourier coefficients a_n, -M/2 < n <= M/2, in FFT layout."""

    n: np.ndarray
    coeffs: np.ndarray

    @property
    def m(self):
        return self.coeffs.size


@dataclass(frozen=True)
class SobolevIndex:
    """A smoothness/integrability pair (s, p) with s > 0, p >= 1."""

    s: float
    p: float

    def __post_init__(self):
        if not (self.s > 0 and self.p >= 1):
            raise ValueError(f"need s > 0 and p >= 1, got ({self.s}, {self.p})")

    def regime(self, n=1):
        """'critical', 'supercritical', or 'subcritical' relative to dimension n."""
        sp = self.s * self.p
        if abs(sp - n) < 1e-12:
            return "critical"
        return "supercritical" if sp > n else "subcritical"


def lift(f):
    """Lift f to a continuous phase via principal-value increments.

    Raises GridTooCoarse when adjacent samples are (nearly) antipodal, since
    the principal increment is then ambiguous.
    """
    s = f.samples
    inc = np.angle(s / np.roll(s, 1))  # inc[j] = principal arg(s_j / s_{j-1})
    if np.max(np.abs(inc)) >= np.pi - 1e-6:
        raise GridTooCoarse("adjacent samples are antipodal; refine the grid")
    values = np.angle(s[0]) + np.concatenate(([0.0], np.cumsum(inc[1:])))
    total = np.sum(inc[1:]) + inc[0]  # closes the loop
    winding = int(round(total / TWO_PI))
    if abs(total / TWO_PI - winding) > 1e-9:
        raise GridTooCoarse("winding did not close to an integer")
    return Phase(values, winding)


def degree_winding(f):
    """Degree via phase lifting (exact integer)."""
    if isinstance(f, Phase):
        return f.winding
    return lift(f).winding


def fourier_modes(m):
    """Mode numbers in FFT layout with the Nyquist bin taken as +M/2."""
    n = np.rint(np.fft.fftfreq(m) * m).astype(int)
    n[m // 2] = m // 2
    return n


def fourier(f):
    """Fourier coefficients of the samples; the inverse transform reproduces
    them exactly."""
    a = np.fft.fft(f.samples) / f.m
    return FourierSeries(fourier_modes(f.m), a)


def spectral_derivative(samples):
    """d/dtheta by Fourier multiplier; exact for band-limited samples."""
    m = samples.size
    return np.fft.ifft(1j * fourier_modes(m) * np.fft.fft(samples))


def degree_kronecker_s1(f):
    """Degree via the integral (1/2pi) int f wedge f' dtheta (a float)."""
    df = spectral_derivative(f.samples)
    return float(np.mean(np.imag(np.conj(f.samples) * df)))


def degree_fourier(f):
    """Degree via sum_n n |a_n|^2 (a float)."""
    fs = f if isinstance(f, FourierSeries) else fourier(f)
    return float(np.sum(fs.n * np.abs(fs.coeffs) ** 2))


def round_degree(x):
    """Round a raw degree quadrature value to the nearest integer.

    Warns when the raw value sits more than 0.1 from any integer, since that
    usually means the grid has not resolved the map.
    """
    d = int(round(x))
    if abs(x - d) > 0.1:
        import warnings

        warnings.warn(f"raw degree {x:.6f} is far from an integer",
                      RuntimeWarning, stacklevel=2)
    return d


def _require_same_grid(f, g):
    if f.m != g.m:
        raise GridMismatch(f"grids differ: {f.m} vs {g.m}")


def product(f, g):
    """Pointwise product; degrees add.  Phase models combine when both exist."""
    _require_same_grid(f, g)
    pm = None
    if f.phase is not None and g.phase is not None:
        pf, pg = f.phase, g.phase
        pm = phase_model(lambda t: pf.value(t) + pg.value(t),
                         lambda t: pf.deriv(t) + pg.deriv(t),
                         np.concatenate((pf.breakpoints, pg.breakpoints)),
                         pf.winding + pg.winding)
    s = f.samples * g.samples
    return CircleMap(s / np.abs(s), phase=pm)


def conjugate(f):
    """Complex conjugate; the degree flips sign."""
    pm = None
    if f.phase is not None:
        pf = f.phase
        pm = phase_model(lambda t: -pf.value(t), lambda t: -pf.deriv(t),
                         pf.breakpoints, -pf.winding)
    return CircleMap(np.conj(f.samples), phase=pm)


def power(f, k):
    """Pointwise k-th power; the degree multiplies by k."""
    k = int(k)
    pm = None
    if f.phase is not None:
        pf = f.phase
        pm = phase_model(lambda t: k * pf.value(t), lambda t: k * pf.deriv(t),
                         pf.breakpoints, k * pf.winding)
    s = f.samples ** k
    return CircleMap(s / np.abs(s), phase=pm)


def phase_model_from_map(f, tail_tol=1e-3):
    """Fit a periodic cubic-spline phase model to a smooth sampled map.

    The lifted phase is split into its winding part d*theta and a periodic
    remainder, which is splined.  When the remainder's derivative spectrum
    does not decay (top-octave energy fraction above tail_tol) the map is not
    resolved as a smooth function and MissingDerivative is raised: supply the
    analytic phase instead.
    """
    from scipy.interpolate import CubicSpline

    ph = lift(f)
    d = ph.winding
    t = f.theta
    periodic = ph.values - d * t
    coef = np.fft.fft(periodic) / f.m
    n = fourier_modes(f.m)
    energy = (np.abs(n) * np.abs(coef)) ** 2  # derivative spectrum
    total = np.sum(energy)
    if total > 1e-20:
        top = np.sum(energy[np.abs(n) > f.m // 4])
        if top / total > tail_tol:
            raise MissingDerivative(
                "phase spectrum does not decay; supply analytic derivatives")
    ts = np.concatenate((t, [TWO_PI]))
    ys = np.concatenate((periodic, [periodic[0]]))
    sp = CubicSpline(ts, ys, bc_type="periodic")
    dsp = sp.derivative()
    return phase_model(lambda x: sp(np.mod(x, TWO_PI)) + d * x,
                       lambda x: dsp(np.mod(x, TWO_PI)) + d,
                       winding=d)
