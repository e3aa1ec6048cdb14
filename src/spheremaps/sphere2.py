"""S^2 machinery: lat-long grids, Kronecker degree, Dirichlet energy,
stereographic power maps, suspensions, and H^1 distances.

Grid rows sit at cell-center colatitudes; each cell's area is exact
(difference of cosines times the longitude step), so the weights sum to
4*pi to machine precision even on nonuniform row spacings.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatch, GridTooCoarse, Overcrowded, ParameterError,
                     PoleSingularity)
from . import gallery
from .grid import PI, TWO_PI, expi

NORTH = np.array([0.0, 0.0, 1.0])
DEFAULT_NPHI = 128  # rows of a grid when none is given
MAX_NPHI = 1024  # row cap: 1024 rows x 2048 longitudes of vectors take 50 MB
PROFILE_R = 0.9  # the suspension and vo1 profiles are constant from r = R on
_ROWS = 64  # grid rows per block of the degree integrand


def _length(x, y, z):
    """sqrt(x^2 + y^2 + z^2) in one new buffer: the bits of np.linalg.norm
    over a short axis of three components, without its slow reduction."""
    out = np.square(x)
    out += np.square(y)
    out += np.square(z)
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class Sphere2Map:
    """Unit vectors sampled on a lat-long grid.

    phi: increasing row colatitudes in (0, pi); values: (n_phi, n_lam, 3),
    read-only, so the degree and energy kept on the map cannot go stale.
    Longitudes are implicit, lam_j = 2*pi*j/n_lam.
    """

    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        r = _length(*np.moveaxis(v, -1, 0))
        drift = np.max(np.abs(np.subtract(r, 1.0, out=r), out=r))
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


def _check_rows(n_phi):
    if not 1 <= n_phi <= MAX_NPHI:
        raise ParameterError(
            f"{n_phi} sphere grid rows: need 1 <= nphi <= {MAX_NPHI}")


def uniform_rows(n_phi):
    _check_rows(n_phi)
    return (np.arange(n_phi) + 0.5) * PI / n_phi


def geometric_rows(r_min, n_phi):
    """Row colatitudes geometric from r_min to pi (for log-scale profiles)."""
    _check_rows(n_phi)
    return np.geomspace(r_min, PI, n_phi, endpoint=False)


def _radial(F, w):
    """The points (sin(F) w, cos(F)) of S^2 for polar angles F and unit
    complex numbers w, broadcast against each other into one new array."""
    s = np.sin(F)
    v = np.empty(np.broadcast_shapes(np.shape(F), np.shape(w)) + (3,))
    np.multiply(s, w.real, out=v[..., 0])
    np.multiply(s, w.imag, out=v[..., 1])
    v[..., 2] = np.cos(F)
    return v


def _polar(profile, winding, R=None, phi=None, n_phi=None, n_lam=None):
    """The map (sin F(r) e^{i w lam}, cos F(r)) for a profile F of the
    colatitude r and a winding w, held at the pole (0, 0, cos F(R)) on
    r >= R when R is given.

    F is evaluated on the grid rows only. The default grid has DEFAULT_NPHI
    uniform rows and 2 n_phi longitudes. Fewer than max(1, 5|w|) rows raise
    GridTooCoarse: at n_phi = 5|w| the Kronecker degree of a stereographic
    power is within 0.0075 of w up to |w| = 204, the largest winding under
    the MAX_NPHI cap, while at 4|w| its error grows with |w|, to 0.146 at
    |w| = 256; the longitudes alias the winding at n_phi = |w|.
    """
    n_phi = phi.size if phi is not None else (
        DEFAULT_NPHI if n_phi is None else n_phi)
    rows = max(1, 5 * abs(winding))
    if n_phi < rows:
        need = (f"need nphi >= {rows}" if rows <= MAX_NPHI else
                f"no grid under the cap of {MAX_NPHI} rows resolves it")
        raise GridTooCoarse(f"winding {winding} needs max(1, 5|w|) = {rows} "
                            f"grid rows, got {n_phi}: {need}")
    phi = uniform_rows(n_phi) if phi is None else phi
    n_lam = 2 * n_phi if n_lam is None else n_lam
    lam = TWO_PI * np.arange(n_lam) / n_lam
    r = phi if R is None else np.minimum(phi, R)
    v = _radial(profile(r)[:, None], expi(winding * lam))
    if R is not None:
        v[phi >= R] = (0.0, 0.0, np.cos(profile(R)))
    v /= _length(*np.moveaxis(v, -1, 0))[..., None]
    return Sphere2Map(phi, v)


def _spectral_d(v, out=None):
    """d/dx along the last axis of real samples of a 2*pi-periodic function,
    by real FFT. The Nyquist mode of an even length is dropped: its
    derivative is not real."""
    n = v.shape[-1]
    spec = np.fft.rfft(v)
    spec *= 1j * np.arange(spec.shape[-1])
    if n % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n, out=out)


def _d_component(sm, comp, out=None):
    """(d/dphi, d/dlam) of one (n_phi, n_lam) component on sm's grid; d/dlam
    is a real FFT along the rows, written into out when given (out may be
    comp itself, which is read first). On uniform rows (and an even n_lam)
    the meridians are continued over both poles, phi -> 2*pi - phi and
    lam -> lam + pi, into (n_lam, 2 n_phi) circles differentiated by a real
    FFT; other rows take second-order differences.
    """
    n, n_lam, h = sm.n_phi, sm.n_lam, sm.n_lam // 2
    if n_lam % 2 or not np.allclose(sm.phi, uniform_rows(n), atol=1e-12):
        d_phi = np.gradient(comp, sm.phi, axis=0, edge_order=2)
    else:
        circle = np.empty((n_lam, 2 * n))
        circle[:, :n] = comp.T
        circle[:h, n:] = comp[::-1, h:].T
        circle[h:, n:] = comp[::-1, :h].T
        d_phi = _spectral_d(circle, out=circle)[:, :n].T
    return d_phi, _spectral_d(comp, out=out)


def _gradients(sm):
    """(d/dphi, d/dlam) of sm's values, each of shape (3, n_phi, n_lam)."""
    d_phi, d_lam = np.empty((2, 3, sm.n_phi, sm.n_lam))
    for c in range(3):
        d_lam[c] = sm.values[..., c]  # a contiguous copy, overwritten last
        d_phi[c] = _d_component(sm, d_lam[c], d_lam[c])[0]
    return d_phi, d_lam


def _energy(sm, gradients, stacklevel):
    """int |grad|^2 with the intrinsic metric (area-exact weights) from the
    (d/dphi, d/dlam) of each component in turn, squared in place; warns,
    stacklevel frames up, where |d/dlam| / sin(phi) passes 1e3 at a pole."""
    dens_phi, dens_lam = np.zeros((2, sm.n_phi, sm.n_lam))
    for d_phi, d_lam in gradients:
        dens_phi += np.square(d_phi, out=d_phi)
        dens_lam += np.square(d_lam, out=d_lam)
        del d_phi, d_lam  # before the next component's buffers
    s = np.sin(sm.phi)[:, None]
    cap = s[:, 0] < 0.05
    if np.any(np.sqrt(dens_lam[cap]) / s[cap] > 1e3):
        warnings.warn("unresolved variation near a pole", PoleSingularity,
                      stacklevel=stacklevel)
    dens_lam /= s ** 2
    dens_phi += dens_lam
    return float(np.sum(dens_phi.sum(axis=1) * sm.row_areas()))


def _measures(f):
    """(degree, energy) of f from one gradient pass, kept on f."""
    if "_measures" not in vars(f):
        d_phi, d_lam = _gradients(f)
        row_sums = np.empty(f.n_phi)
        for a in range(0, f.n_phi, _ROWS):  # the integrand, a block at a time
            b = slice(a, a + _ROWS)
            (px, py, pz), (lx, ly, lz) = d_phi[:, b], d_lam[:, b]
            x, y, z = np.moveaxis(f.values[b], -1, 0)
            row_sums[b] = (x * (py * lz - pz * ly) + y * (pz * lx - px * lz)
                           + z * (px * ly - py * lx)).sum(axis=1)
        widths = np.diff(f._row_edges())  # of the cell rows in phi
        degree = float(np.sum(row_sums * widths)
                       * (TWO_PI / f.n_lam) / (4.0 * PI))
        energy = _energy(f, zip(d_phi, d_lam), stacklevel=4)
        object.__setattr__(f, "_measures", (degree, energy))
    return f._measures


def degree_kronecker_s2(f):
    """(1/4pi) int f . (df/dphi x df/dlam) dphi dlam (a float)."""
    return _measures(f)[0]


def dirichlet_energy(f):
    """int_{S^2} |grad f|^2 with the intrinsic metric (area-exact weights)."""
    return _measures(f)[1]


def h1_distance(f, g):
    """sqrt( int |grad(f - g)|^2 ), one component of f - g at a time."""
    if f.values.shape != g.values.shape or not np.allclose(f.phi, g.phi):
        raise GridMismatch("sphere grids differ")
    return float(np.sqrt(_energy(f, (
        _d_component(f, f.values[..., c] - g.values[..., c])
        for c in range(3)), stacklevel=3)))


def stereographic_power(d, n_phi=None):
    """T^{-1}((T(s))^d) with T the stereographic projection from the north
    pole; degree d, Dirichlet energy 8*pi*|d|.

    Colatitude phi goes to the F with tan(F/2) = tan(phi/2)^|d|, computed as
    2 arctan2(sin(phi/2)^|d|, cos(phi/2)^|d|). Both powers have bases in
    [0, 1], so neither can overflow at any d; each can only underflow toward
    0, and arctan2 takes 0 in either argument. Negative d composes with
    complex conjugation (orientation flip), so the Kronecker degree really
    is d and not |d|.
    """
    d = int(d)
    return _polar(lambda phi: 2.0 * np.arctan2(np.sin(phi / 2.0) ** abs(d),
                                               np.cos(phi / 2.0) ** abs(d)),
                  d, n_phi=n_phi)


# ---------------------------------------------------------------------------
# suspensions

@dataclass(frozen=True)
class SuspensionSpec:
    """Suspension data: the profile F(r) = k*pi*smoothstep(r/PROFILE_R) of
    the distance r from the north pole crosses the poles k times, and the
    equatorial map winds h_degree times around them."""

    k: int
    h_degree: int


def default_suspension(k, dh):
    """The suspension of z^dh over k pole crossings."""
    return SuspensionSpec(int(k), int(dh))


def suspension(spec, n_phi=None):
    """Build the suspension map (sin F(r) e^{i dh lam}, cos F(r)) on a grid.

    Degree is k*deg(h) for k odd and 0 for k even (N = 2 parity rule).
    """
    return _polar(lambda r: spec.k * PI * gallery.smoothstep(r / PROFILE_R),
                  spec.h_degree, PROFILE_R, n_phi=n_phi)


def antipode(f):
    """The pointwise negation -f; for N = 2 the degree flips sign."""
    return Sphere2Map(f.phi, -f.values)


# ---------------------------------------------------------------------------
# bump constructions on S^2

def _chart_basis(center):
    """Right-handed tangent basis (e1, e2) at center."""
    c = center / np.linalg.norm(center)
    helper = NORTH if abs(c[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, c)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return c, e1, e2


def _with_bumps(sm, k, ring, radius, up_degree):
    """sm with k bumps of degree sign(up_degree) each inserted on geodesic
    discs of the given radius, centered at colatitude ring and longitudes
    2*pi*j/k; sm must be (0,0,1) on the discs, and a bump stays (0,0,1) on
    its disc boundary.

    Neighbouring centers are 2 arcsin(sin(ring) sin(pi/k)) apart along a
    great circle (2*pi/k on the equator); discs closer than that overlap
    and raise Overcrowded.
    """
    if k > 1 and 2.0 * radius >= 2.0 * np.arcsin(np.sin(ring)
                                                 * np.sin(PI / k)):
        raise Overcrowded(f"{k} bumps of radius {radius:g} do not fit on the "
                          f"ring at colatitude {ring:g}")
    # the discs lie on the rows within radius of the ring in colatitude;
    # one more row on each side keeps the rounding of r off the band's edge
    lo, hi = np.searchsorted(sm.phi, (ring - radius, ring + radius))
    band = slice(max(lo - 1, 0), hi + 1)
    points = _radial(sm.phi[band, None], expi(sm.lam))
    values = sm.values.copy()
    on_band = values[band]
    dh = -int(np.sign(up_degree))  # chart formula gives deg = -dh per turn
    for j in range(k):
        c, e1, e2 = _chart_basis(_radial(ring, expi(TWO_PI * j / k)))
        r = np.arccos(np.clip(points @ c, -1.0, 1.0))
        mask = r < radius
        if not np.allclose(on_band[mask], NORTH, atol=1e-9):
            raise ValueError("bump target region is not constant north")
        p = points[mask]
        alpha = np.arctan2(p @ e2, p @ e1)
        prof = PI * (1.0 - gallery.smoothstep(r[mask] / radius))
        on_band[mask] = _radial(prof, expi(dh * alpha))
    return Sphere2Map(sm.phi, values)


def multi_bump_s2(d, n, n_phi=None):
    """Degree-d map equal to (0,0,1) outside |d| geodesic discs of radius 1/n."""
    d, n = int(d), int(n)
    radius = 1.0 / n
    n_phi = 256 if n_phi is None else n_phi
    # a radius must span 6 rows: at n = 32 the Kronecker degree of d = 2
    # reads 1.990 with 5.1 rows per radius and 2.002 with 6.4
    rows = radius * n_phi / PI
    if rows < 6.0:
        raise GridTooCoarse(
            f"a bump radius 1/{n} spans {rows:.1f} of {n_phi} rows, fewer "
            f"than 6: need n_phi (spec key nphi) >= {int(np.ceil(6.0 * PI * n))}"
            " or a smaller n")
    north = _polar(np.zeros_like, 0, n_phi=n_phi)
    return _with_bumps(north, abs(d), PI / 2.0, radius, d)


def bump_pair_s2(prof, n_phi=None):
    """The degree-(1,0) pair from the capacity profiles, centered at the
    north pole on a geometric row grid that resolves the eps scales."""
    phi = geometric_rows(prof.eps / 16.0, 512 if n_phi is None else n_phi)
    f, g = (_polar(profile, 1, phi=phi, n_lam=64)
            for profile in (prof.F, prof.G))
    return gallery.GalleryPair(f, g, "critical_bump")


def vo1_pair(d1, d2, n_phi=None):
    """S^2 pair in classes (d1, d2) whose difference field is independent of
    d1 - d2: equal radial profiles around the north pole, different windings,
    plus (for d2 != 0) a shared degree-d2 insertion where both equal (0,0,1)."""
    d1, d2 = int(d1), int(d2)
    if d1 == d2:
        raise ValueError("need d1 != d2")
    R = PROFILE_R

    def G(r):
        up = gallery.smoothstep((r - R / 4.0) / (R / 3.0 - R / 4.0))
        down = gallery.smoothstep(
            (r - 2.0 * R / 3.0) / (3.0 * R / 4.0 - 2.0 * R / 3.0))
        return 0.5 * PI * (up - down)

    def F(r):
        return np.where(r < R / 2.0, G(r), PI - G(r))

    n_phi = 256 if n_phi is None else n_phi
    f, g = (_polar(profile, d1 - d2, R, n_phi=n_phi) for profile in (F, G))
    if d2 != 0:  # one map at a time, so each unbumped map goes first
        bumps = (abs(d2), R / 6.0, min(0.06, R / 12.0), d2)
        f = _with_bumps(f, *bumps)
        g = _with_bumps(g, *bumps)
    return gallery.GalleryPair(f, g, "vo1_independent")
