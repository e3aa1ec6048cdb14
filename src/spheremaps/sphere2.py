"""S^2 machinery: lat-long grids, Kronecker degree, Dirichlet energy,
stereographic power maps, suspensions, and H^1 distances.

Grid rows sit at cell-center colatitudes; each cell's area is exact
(difference of cosines times the longitude step), so the weights sum to
4*pi to machine precision even on nonuniform row spacings.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (GridMismatch, GridTooCoarse, InvalidProfile, Overcrowded,
                     PoleSingularity)
from . import gallery
from .grid import PI, TWO_PI

NORTH = np.array([0.0, 0.0, 1.0])
DEFAULT_NPHI = 128  # rows of a grid when none is given


@dataclass(frozen=True)
class Sphere2Map:
    """Unit vectors sampled on a lat-long grid.

    phi: increasing row colatitudes in (0, pi); values: (n_phi, n_lam, 3);
    longitudes are implicit, lam_j = 2*pi*j/n_lam.
    """

    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        drift = np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0))
        if drift > 1e-10:
            raise ValueError(f"values leave the unit sphere by {drift:.3e}")

    @property
    def n_phi(self):
        return self.values.shape[0]

    @property
    def n_lam(self):
        return self.values.shape[1]

    @property
    def lam(self):
        return TWO_PI * np.arange(self.n_lam) / self.n_lam

    def _row_edges(self):
        return np.concatenate(([0.0], 0.5 * (self.phi[1:] + self.phi[:-1]),
                               [PI]))

    def row_areas(self):
        """Exact area of each cell row (length n_phi); total is 4*pi."""
        b = self._row_edges()
        return (np.cos(b[:-1]) - np.cos(b[1:])) * TWO_PI / self.n_lam

    def row_widths(self):
        """Coordinate width of each cell row in phi."""
        return np.diff(self._row_edges())


def uniform_rows(n_phi):
    return (np.arange(n_phi) + 0.5) * PI / n_phi


def geometric_rows(r_min, n_phi):
    """Row colatitudes geometric from r_min to pi (for log-scale profiles)."""
    return np.geomspace(r_min, PI, n_phi, endpoint=False)


def from_function(fn, phi=None, n_phi=None, n_lam=None):
    """Sample fn(phi_grid, lam_grid) -> (..., 3) into a Sphere2Map."""
    if phi is None:
        n_phi = DEFAULT_NPHI if n_phi is None else n_phi
        phi = uniform_rows(n_phi)
    n_lam = 2 * phi.size if n_lam is None else n_lam
    lam = TWO_PI * np.arange(n_lam) / n_lam
    v = fn(phi[:, None], lam[None, :])
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return Sphere2Map(phi, v)


def _radial(F, w):
    """The points (sin(F) w, cos(F)) of S^2 for polar angles F and unit
    complex numbers w, broadcast against each other."""
    s = np.sin(F)
    return np.stack(np.broadcast_arrays(s * w.real, s * w.imag, np.cos(F)),
                    axis=-1)


def _grid_points(phi, lam):
    """Unit vectors at colatitudes phi and longitudes lam, broadcast."""
    return _radial(phi, np.exp(1j * lam))


def _spectral_d(v, axis, length):
    n = v.shape[axis]
    modes = np.fft.fftfreq(n) * n * (TWO_PI / length)
    shape = [1, 1, 1]
    shape[axis] = n
    return np.fft.ifft(1j * modes.reshape(shape) * np.fft.fft(v, axis=axis),
                       axis=axis).real


def _gradients(sm, values=None):
    """(d/dphi, d/dlam) of a (possibly non-unit) field on sm's grid.

    On uniform rows the meridian is continued over both poles into a full
    periodic circle (phi -> 2*pi - phi, lam -> lam + pi) and differentiated
    spectrally; nonuniform rows fall back to second-order differences.
    """
    v = sm.values if values is None else values
    uniform = np.allclose(sm.phi, uniform_rows(sm.n_phi), atol=1e-12)
    if uniform and sm.n_lam % 2 == 0:
        mirrored = np.roll(v[::-1], sm.n_lam // 2, axis=1)
        ext = np.concatenate([v, mirrored], axis=0)
        d_phi = _spectral_d(ext, 0, TWO_PI)[: sm.n_phi]
    else:
        d_phi = np.gradient(v, sm.phi, axis=0, edge_order=2)
    d_lam = _spectral_d(v, 1, TWO_PI)
    return d_phi, d_lam


def _pole_check(sm, d_lam):
    cap = np.sin(sm.phi) < 0.05
    if cap.any():
        worst = np.max(np.linalg.norm(d_lam[cap], axis=-1)
                       / np.sin(sm.phi)[cap, None])
        if worst > 1e3:
            warnings.warn("unresolved variation near a pole",
                          PoleSingularity, stacklevel=3)


def degree_kronecker_s2(f):
    """(1/4pi) int f . (df/dphi x df/dlam) dphi dlam (a float)."""
    d_phi, d_lam = _gradients(f)
    _pole_check(f, d_lam)
    integrand = np.einsum("ijk,ijk->ij", f.values, np.cross(d_phi, d_lam))
    dlam = TWO_PI / f.n_lam
    return float(np.sum(integrand.sum(axis=1) * f.row_widths()) * dlam / (4.0 * PI))


def dirichlet_energy(f, values=None):
    """int_{S^2} |grad f|^2 with the intrinsic metric (area-exact weights)."""
    d_phi, d_lam = _gradients(f, values)
    _pole_check(f, d_lam)
    s = np.sin(f.phi)[:, None]
    dens = np.einsum("ijk,ijk->ij", d_phi, d_phi) \
        + np.einsum("ijk,ijk->ij", d_lam, d_lam) / s ** 2
    return float(np.sum(dens.sum(axis=1) * f.row_areas()))


def h1_distance(f, g):
    """sqrt( int |grad(f - g)|^2 )."""
    if f.values.shape != g.values.shape or not np.allclose(f.phi, g.phi):
        raise GridMismatch("sphere grids differ")
    return float(np.sqrt(dirichlet_energy(f, f.values - g.values)))


def stereographic_power(d, n_phi=None):
    """T^{-1}((T(s))^d) with T the stereographic projection from the north
    pole; degree d, Dirichlet energy 8*pi*|d|.

    Negative d composes with complex conjugation (orientation flip), so the
    Kronecker degree really is d and not |d|.
    """
    d = int(d)

    def fn(phi, lam):
        rho = np.tan(phi / 2.0) ** (-abs(d))  # |T|^|d| = cot(phi/2)^|d|
        w = rho * np.exp(1j * d * lam)
        den = 1.0 + np.abs(w) ** 2
        return np.stack([2.0 * w.real / den, 2.0 * w.imag / den,
                         (np.abs(w) ** 2 - 1.0) / den], axis=-1)

    return from_function(fn, n_phi=n_phi)


# ---------------------------------------------------------------------------
# suspensions

@dataclass(frozen=True)
class SuspensionSpec:
    """Radial suspension data: profile F on [0, R] with F(0) = 0, F(R) = k*pi,
    locally constant at both ends; equatorial map of degree h_degree applied
    in the exponential chart at the north pole."""

    F: Callable
    k: int
    h_degree: int
    R: float = 0.9


def default_suspension(k, dh):
    """Profile F(r) = k*pi*smoothstep(r/R) on the default radius R."""
    return SuspensionSpec(lambda r: k * PI * gallery.smoothstep(
        np.asarray(r, float) / SuspensionSpec.R), int(k), int(dh))


def _chart_basis(center):
    """Right-handed tangent basis (e1, e2) at center."""
    c = center / np.linalg.norm(center)
    helper = NORTH if abs(c[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, c)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return c, e1, e2


def _suspension_values(spec, points):
    """Evaluate the suspension at an array (..., 3) of sphere points."""
    c, e1, e2 = _chart_basis(NORTH)
    dots = np.clip(points @ c, -1.0, 1.0)
    r = np.arccos(dots)
    alpha = np.arctan2(points @ e2, points @ e1)
    out = _radial(spec.F(np.minimum(r, spec.R)),
                  np.exp(1j * spec.h_degree * alpha))
    outside = r >= spec.R
    out[outside] = np.array([0.0, 0.0, np.cos(spec.k * PI)])
    return out


def suspension(spec, n_phi=None):
    """Build the suspension map (sin F(r) h(angle), cos F(r)) on a grid.

    Degree is k*deg(h) for k odd and 0 for k even (N = 2 parity rule).
    """
    f0 = float(spec.F(np.array([0.0]))[0] if np.ndim(spec.F(0.0)) else spec.F(0.0))
    fr = float(np.asarray(spec.F(spec.R)))
    if abs(f0) > 1e-9 or abs(fr - spec.k * PI) > 1e-9:
        raise InvalidProfile(
            f"profile endpoints F(0)={f0:.2e}, F(R)={fr:.4f} != (0, k*pi)")
    eps = 1e-3 * spec.R
    if abs(float(np.asarray(spec.F(eps))) - f0) > 1e-9 or \
            abs(float(np.asarray(spec.F(spec.R - eps))) - fr) > 1e-9:
        raise InvalidProfile("profile is not locally constant at its endpoints")

    return from_function(
        lambda phi, lam: _suspension_values(spec, _grid_points(phi, lam)),
        n_phi=n_phi)


def antipode(f):
    """The pointwise negation -f; for N = 2 the degree flips sign."""
    return Sphere2Map(f.phi, -f.values)


# ---------------------------------------------------------------------------
# bump constructions on S^2

def _insert_bump(values, points, center, radius, up_degree):
    """Overwrite a geodesic disc (where values must be (0,0,1)) with a
    degree-up_degree bump that stays (0,0,1) on the disc boundary."""
    c, e1, e2 = _chart_basis(center)
    dots = np.clip(points @ c, -1.0, 1.0)
    r = np.arccos(dots)
    mask = r < radius
    if not np.allclose(values[mask], NORTH, atol=1e-9):
        raise ValueError("bump target region is not constant north")
    alpha = np.arctan2(points @ e2, points @ e1)
    prof = PI * (1.0 - gallery.smoothstep(r / radius))  # pi at center, 0 at edge
    dh = -int(np.sign(up_degree))  # chart formula gives deg = -dh per turn
    values[mask] = _radial(prof, np.exp(1j * dh * alpha))[mask]


def multi_bump_s2(d, n, n_phi=None):
    """Degree-d map equal to (0,0,1) outside |d| geodesic discs of radius 1/n."""
    d, n = int(d), int(n)
    k = abs(d)
    radius = 1.0 / n
    if k > 1 and 2.0 * radius >= TWO_PI / k:
        raise Overcrowded(f"{k} bumps of radius {radius} do not fit on the equator")
    n_phi = 256 if n_phi is None else n_phi
    # a radius must span 6 rows: at n = 32 the Kronecker degree of d = 2
    # reads 1.990 with 5.1 rows per radius and 2.002 with 6.4
    rows = radius * n_phi / PI
    if rows < 6.0:
        raise GridTooCoarse(
            f"a bump radius 1/{n} spans {rows:.1f} of {n_phi} rows, fewer "
            f"than 6: need n_phi (spec key nphi) >= {int(np.ceil(6.0 * PI * n))}"
            " or a smaller n")
    phi = uniform_rows(n_phi)
    n_lam = 2 * n_phi
    points = _grid_points(phi[:, None], TWO_PI * np.arange(n_lam) / n_lam)
    values = np.tile(NORTH, (n_phi, n_lam, 1))
    for j in range(k):
        ang = TWO_PI * j / k
        center = np.array([np.cos(ang), np.sin(ang), 0.0])
        _insert_bump(values, points, center, radius, np.sign(d))
    return Sphere2Map(phi, values)


def bump_pair_s2(prof, n_phi=None):
    """The degree-(1,0) pair from the capacity profiles, centered at the
    north pole on a geometric row grid that resolves the eps scales."""
    n_phi = 512 if n_phi is None else n_phi
    phi = geometric_rows(prof.eps / 16.0, n_phi)
    n_lam = 64

    def make(profile):
        return from_function(lambda p, l: _radial(profile(p), np.exp(1j * l)),
                             phi=phi, n_lam=n_lam)

    f, g = make(prof.F), make(prof.G)
    return gallery.GalleryPair(f, g, {"eps": prof.eps, "n_dim": 2},
                               "critical_bump")


def vo1_pair(d1, d2, n_phi=None, R=0.9):
    """S^2 pair in classes (d1, d2) whose difference field is independent of
    d1 - d2: equal radial profiles around the north pole, different windings,
    plus (for d2 != 0) a shared degree-d2 insertion where both equal (0,0,1)."""
    d1, d2 = int(d1), int(d2)
    if d1 == d2:
        raise ValueError("need d1 != d2")
    d = d1 - d2
    n_phi = 256 if n_phi is None else n_phi

    def G(r):
        r = np.asarray(r, dtype=float)
        up = gallery.smoothstep((r - R / 4.0) / (R / 3.0 - R / 4.0))
        down = gallery.smoothstep(
            (r - 2.0 * R / 3.0) / (3.0 * R / 4.0 - 2.0 * R / 3.0))
        return 0.5 * PI * (up - down)

    def F(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < R / 2.0, G(r), PI - G(r))

    def make(profile, winding):
        def fn(p, l):
            rr = np.minimum(p, R) + 0.0 * l
            out = _radial(profile(rr), np.exp(1j * (winding * l)))
            outside = (p + 0.0 * l) >= R
            out[outside] = np.array([0.0, 0.0, float(np.cos(profile(R)))])
            return out

        return from_function(fn, n_phi=n_phi)

    f, g = make(F, d), make(G, d)
    if d2 != 0:
        phi = f.phi
        points = _grid_points(phi[:, None], f.lam)
        vf, vg = f.values.copy(), g.values.copy()
        k2 = abs(d2)
        ring, radius = R / 6.0, min(0.06, R / 12.0)
        if k2 > 1 and 2.0 * radius >= 2.0 * ring * np.sin(PI / k2):
            raise Overcrowded("insertion bumps do not fit near the pole")
        for j in range(k2):
            ang = TWO_PI * j / k2
            center = np.array([np.sin(ring) * np.cos(ang),
                               np.sin(ring) * np.sin(ang), np.cos(ring)])
            _insert_bump(vf, points, center, radius, np.sign(d2))
            _insert_bump(vg, points, center, radius, np.sign(d2))
        f, g = Sphere2Map(phi, vf), Sphere2Map(phi, vg)
    return gallery.GalleryPair(f, g, {"d1": d1, "d2": d2, "R": R},
                               "vo1_independent")
