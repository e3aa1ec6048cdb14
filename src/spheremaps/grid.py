"""Circle-valued maps on uniform grids: lifting, winding numbers, Fourier tools.

A map S^1 -> S^1 is stored as complex samples on the uniform grid
theta_j = 2*pi*j/M.  Degrees are computed three independent ways (phase
lifting, the Kronecker integral, and the Fourier mode sum) so the routes can
cross-check each other.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (GridMismatch, GridTooCoarse, IndexOutOfRange,
                     MissingDerivative, ParameterError)

PI = np.pi
TWO_PI = 2.0 * np.pi


DEFAULT_M = 4096  # grid size used when none is given
MAX_M = 1 << 22  # size cap: 2^22 complex samples take 64 MB


def pow2_size(x, floor=DEFAULT_M):
    """The smallest power of two >= x and >= floor: a default grid size.
    Raises ParameterError when x is above the cap MAX_M or not a number."""
    if not x <= MAX_M:
        raise ParameterError(f"the default grid needs {x:.3g} nodes, over "
                             f"the cap 2^22 = {MAX_M}")
    return max(floor, 1 << int(np.ceil(np.log2(max(x, 1.0)))))


def breakpoint_range(start, stop):
    """np.arange(start, stop) of breakpoint indices, refused past MAX_M."""
    if stop - start > MAX_M:
        raise ParameterError(f"the phase has {stop - start} breakpoints, more "
                             f"than the cap 2^22 = {MAX_M} on grid nodes")
    return np.arange(start, stop)


def _check_m(m):
    if m < 16 or (m & (m - 1)) != 0:
        raise GridTooCoarse(f"grid size must be a power of two >= 16, got {m}")
    if m > MAX_M:
        raise ParameterError(f"grid size {m} exceeds the cap 2^22 = {MAX_M}")


def nodes(m):
    """Uniform grid theta_j = 2*pi*j/M, j = 0..M-1."""
    _check_m(m)
    return TWO_PI * np.arange(m) / m


def expi(theta):
    """e^{i theta} for real theta, written as cos and sin into one complex
    array: the bits of np.exp(1j * theta) without its complex temporary."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def patch_nonfinite(v, x=None):
    """Replace non-finite values by linear interpolation between their
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


def _node_step(phase, m):
    """max |phi'| * 2*pi/m over the finite derivative values at the nodes of
    m: the largest phase step from one node to the next. A node within half
    a spacing of a breakpoint, where phi' may have an integrable singularity,
    reads phi' half a spacing from that breakpoint instead."""
    t = nodes(m)
    bp = phase.breakpoints
    if bp.size:
        j = np.rint(bp * (m / TWO_PI))  # the node nearest each breakpoint
        gap = j * (TWO_PI / m) - bp
        close = np.abs(gap) < PI / m
        t[j[close].astype(int) % m] = np.mod(
            bp[close] + np.where(gap[close] < 0, -PI / m, PI / m), TWO_PI)
    d = np.abs(phase.deriv(t))
    d = d[np.isfinite(d)]
    return (np.max(d) if d.size else 0.0) * TWO_PI / m


def from_phase(phase, m=None):
    """Build a CircleMap exp(i*phi(theta_j)) from a PhaseModel.

    Raises GridTooCoarse when the phase steps pi or more from one node to
    the next (by _node_step), since the samples then alias the map; the
    message names the smallest power of two m that resolves it. Node values
    are not compared: a phase model may jump by 2*pi.
    """
    m = DEFAULT_M if m is None else m
    step = _node_step(phase, m)
    if step >= PI:
        need = 2 * m
        while need <= MAX_M and _node_step(phase, need) >= PI:
            need *= 2
        raise GridTooCoarse(
            f"the phase steps {step:.3g} rad per node on {m} nodes, at least "
            f"pi, so the samples alias the map: " + (
                f"need m >= {need}" if need <= MAX_M else
                f"no grid under the cap 2^22 = {MAX_M} resolves it"))
    return CircleMap(expi(phase.value(nodes(m))), phase=phase)


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


@dataclass(frozen=True)
class SobolevIndex:
    """A smoothness/integrability pair (s, p), finite, with s > 0, p >= 1."""

    s: float
    p: float

    def __post_init__(self):
        if not (0 < self.s < np.inf and 1 <= self.p < np.inf):
            raise IndexOutOfRange(
                f"need finite s > 0 and p >= 1, got ({self.s}, {self.p})")


def lift(f):
    """Lift f to a continuous phase via principal-value increments.

    Raises GridTooCoarse when adjacent samples are (nearly) antipodal, since
    the principal increment is then ambiguous.
    """
    s = f.samples
    inc = np.empty_like(s)  # s_j / s_{j-1}, cyclically
    np.divide(s[1:], s[:-1], out=inc[1:])
    np.divide(s[:1], s[-1:], out=inc[:1])
    inc = np.angle(inc)  # inc[j] = principal arg(s_j / s_{j-1})
    if max(inc.max(), -inc.min()) >= PI - 1e-6:  # max |inc|
        raise GridTooCoarse("adjacent samples are antipodal; refine the grid")
    values = np.empty(s.size)  # arg s_0 plus the partial sums of inc[1:]
    values[0] = 0.0
    np.cumsum(inc[1:], out=values[1:])
    values += np.angle(s[0])
    total = np.sum(inc[1:]) + inc[0]  # closes the loop
    winding = int(round(total / TWO_PI))
    if abs(total / TWO_PI - winding) > 1e-9:
        raise GridTooCoarse("winding did not close to an integer")
    return Phase(values, winding)


def degree_winding(f):
    """Degree via phase lifting (exact integer)."""
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
    fs = fourier(f)
    return float(np.sum(fs.n * np.abs(fs.coeffs) ** 2))


def round_degree(x):
    """Round a raw degree quadrature value to the nearest integer.

    Warns when the raw value sits more than 0.1 from any integer, since that
    usually means the grid has not resolved the map.
    """
    d = int(round(x))
    if abs(x - d) > 0.1:
        warnings.warn(f"raw degree {x:.6f} is far from an integer",
                      RuntimeWarning, stacklevel=2)
    return d


def require_same_grid(f, g):
    if f.m != g.m:
        raise GridMismatch(f"grids differ: {f.m} vs {g.m}")


def _phase_sum(*terms):
    """The phase model sum c * phi of (c, PhaseModel) terms, or None when a
    term has no phase model."""
    if any(pm is None for _, pm in terms):
        return None
    return phase_model(lambda t: sum(c * pm.value(t) for c, pm in terms),
                       lambda t: sum(c * pm.deriv(t) for c, pm in terms),
                       np.concatenate([pm.breakpoints for _, pm in terms]),
                       sum(c * pm.winding for c, pm in terms))


def product(f, g):
    """Pointwise product; degrees add.  Phase models combine when both exist."""
    require_same_grid(f, g)
    s = f.samples * g.samples
    return CircleMap(s / abs(s), phase=_phase_sum((1, f.phase), (1, g.phase)))


def conjugate(f):
    """Complex conjugate; the degree flips sign."""
    return CircleMap(np.conj(f.samples), phase=_phase_sum((-1, f.phase)))


def power(f, k):
    """Pointwise k-th power; the degree multiplies by k."""
    k = int(k)
    s = f.samples ** k
    return CircleMap(s / abs(s), phase=_phase_sum((k, f.phase)))


def require_smooth(values):
    """Raise MissingDerivative unless periodic samples resolve a smooth
    function: at most 1e-3 of their derivative spectrum's energy may lie
    above |n| = M/4."""
    m = values.size
    n = fourier_modes(m)
    energy = (np.abs(n) * np.abs(np.fft.fft(values) / m)) ** 2
    total = np.sum(energy)
    if total > 1e-20 and np.sum(energy[np.abs(n) > m // 4]) / total > 1e-3:
        raise MissingDerivative(
            "samples look non-smooth on this grid (their spectrum does not "
            "decay); supply analytic derivatives")


def phase_from_modes(n, c, winding, t):
    """(phase, phase') on the uniform nodes t of the real phase winding*theta
    + sum_n c_n e^{i n theta} (c_{-n} = conj c_n) from one inverse FFT: the
    derivative's spectrum i n c_n, packed as the imaginary part, puts
    c_n + i (i n c_n) = c_n (1 - n) at mode n."""
    spec = np.zeros(t.size, dtype=complex)
    spec[n] = c * (1 - n)
    z = np.fft.ifft(spec, norm="forward")
    return winding * t + z.real, winding + z.imag


def phase_on_grid(f, m=None):
    """(phase, phase', winding) of f on nodes(m), f's own grid by default.

    A phase model is evaluated, its derivative patched where non-finite.  A
    sampled map is lifted; its periodic part phi - d*theta must pass
    require_smooth and is resampled by phase_from_modes (zero-padded, or
    truncated below min(f.m, m)/2).
    """
    m = f.m if m is None else m
    t, pm = nodes(m), f.phase
    if pm is not None:
        return pm.value(t), patch_nonfinite(pm.deriv(t), t), pm.winding
    ph = lift(f)
    periodic = ph.values - ph.winding * f.theta
    require_smooth(periodic)
    n = fourier_modes(m)
    n = n[np.abs(n) < min(f.m, m) // 2]
    return (*phase_from_modes(n, np.fft.fft(periodic)[n] / f.m, ph.winding, t),
            ph.winding)
