"""Semi-norms and distances on S^1: W^{1,p}, Gagliardo W^{s,p}, H^{1/2}, sup.

The Fourier form is the canonical H^{1/2} value. The Gagliardo double sum
(with periodic arc-length kernel) measures the same class of functions with
its own constant: on e^{i theta} its square is about 0.7736 times the
Fourier value.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grid
from .errors import (IndexOutOfRange, MissingDerivative, NotACircleMap,
                     ParameterError)
from .grid import PI, TWO_PI, CircleMap, SobolevIndex


@dataclass(frozen=True)
class SeminormResult:
    value: float
    index: SobolevIndex
    grid: int
    method: str  # w1p_quadrature | gagliardo_quadrature | fourier_h_half | sup_norm


def _values(h):
    return h.samples if isinstance(h, CircleMap) else np.asarray(h)


def _with_derivs(f, g, derivs):
    """f and g with the phase models of derivs (pf, pg) attached where given."""
    return tuple(h if pm is None else replace(h, phase=pm)
                 for h, pm in zip((f, g), derivs or (None, None)))


def _grid_derivative(h):
    """h' on its grid: i phi' h from a smooth phase model, else the spectral
    derivative of the samples."""
    if h.phase is None:
        grid.require_smooth(h.samples)
        return grid.spectral_derivative(h.samples)
    if h.phase.breakpoints.size:
        raise MissingDerivative("a kinked phase model cannot be "
                                "differentiated on the grid; pass derivs")
    return 1j * grid.phase_on_grid(h)[1] * h.samples


def speed_gap_sq(dphi, dpsi, cos_gap):
    """|f' - g'|^2 = f'^2 + g'^2 - 2 f'g' cos(phi - psi) for f = e^{i phi},
    g = e^{i psi}, clipped at 0, from phi', psi' and cos(phi - psi)."""
    return np.maximum(dphi ** 2 + dpsi ** 2 - 2.0 * dphi * dpsi * cos_gap, 0.0)


def w1p_distance(f, g, p, derivs=None):
    """( int |f' - g'|^p )^{1/p} over S^1.

    When both maps have phase models (attached, or given in derivs) the
    integral runs segment by segment between their breakpoints, so kinks
    cost no accuracy; otherwise it is the trapezoid rule on the grid nodes.
    |f' - g'| is scaled by its maximum before the power: no p overflows.
    """
    grid.require_same_grid(f, g)
    if p < 1:
        raise IndexOutOfRange(f"need p >= 1, got {p}")
    f, g = _with_derivs(f, g, derivs)
    pf, pg = f.phase, g.phase
    if pf is None or pg is None:
        v = np.abs(_grid_derivative(f) - _grid_derivative(g))
        v, x = np.append(v, v[0]), np.append(f.theta, TWO_PI)
    else:
        edges = np.unique(np.concatenate(
            ([0.0], pf.breakpoints, pg.breakpoints, [TWO_PI])))
        base, ts, xs = f.theta, [], []
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a < 1e-14:
                continue
            nudge = 1e-9 * (b - a)  # evaluate just inside, integrate to ends
            lo = np.searchsorted(base, a + nudge, "right")
            inner = base[lo:np.searchsorted(base, b - nudge)]
            ts.append(np.concatenate(([a + nudge], inner, [b - nudge])))
            xs.append(np.concatenate(([a], inner, [b])))
        # segments share their ends, so the joins are panels of width 0
        t, x = np.concatenate(ts), np.concatenate(xs)
        v = np.sqrt(grid.patch_nonfinite(speed_gap_sq(
            pf.deriv(t), pg.deriv(t), np.cos(pf.value(t) - pg.value(t)))))
    top = np.max(v)
    return top * np.trapezoid((v / top) ** p, x) ** (1 / p) if top else 0.0


def sup_distance(f, g):
    """max_j |f_j - g_j| (the L^infty distance on the grid)."""
    grid.require_same_grid(f, g)
    return float(np.max(np.abs(f.samples - g.samples)))


def h_half_seminorm_sq(h):
    """|h|^2 in the Fourier form 4*pi^2 * sum |n| |a_n|^2.

    Accepts a CircleMap or a plain grid function (e.g. a difference f - g).
    """
    v = _values(h)
    a = np.fft.fft(v) / v.size
    return float(4.0 * PI ** 2 * np.sum(_abs_modes(v.size)
                                        * np.abs(a) ** 2))


def h_half_distance(f, g=None):
    """|f - g| in the Fourier H^{1/2} form (|f| when g is None); f and g
    are circle maps or plain grid functions."""
    return math.sqrt(h_half_seminorm_sq(_difference(f, g)))


# maxsize 1: a one-off 2^21-point grid must not keep 16 MB of modes alive
@functools.lru_cache(maxsize=1)
def _abs_modes(m):
    """|grid.fourier_modes(m)| as min(k, m - k), computed once per size and
    shared read-only."""
    k = np.arange(m)
    n = np.minimum(k, m - k)
    n.flags.writeable = False
    return n


# node cap of the O(M^2) sums (gagliardo_seminorm at p != 2 and
# gagliardo_even): at p = 1.5 on a 2-core host 2^15 nodes take 4.5 s, while
# 2^20 would take hours
_MAX_NODES_P = 1 << 15


def _workers():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(blocks, share):
    """Run share(its blocks) on w = min(cores, blocks) shares, at least one:
    share i iterates over blocks i, i + w, ...

    The caller runs share 0 and threads run the others; every share sees
    the caller's np.errstate (a context variable, which a new thread does
    not inherit). Once a share raises, or KeyboardInterrupt reaches the
    caller, no share is dealt a further block. The threads are joined
    before the first exception is raised here.
    """
    w = max(1, min(_workers(), blocks))
    errors, stop, err = [], threading.Event(), np.geterr()

    def dealt(i):
        return (b for b in range(i, blocks, w) if not stop.is_set())

    def run(i):
        try:
            with np.errstate(**err):
                share(dealt(i))
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, w)]
    for t in threads:
        t.start()
    try:
        share(dealt(0))
        for t in threads:
            t.join()
    finally:
        stop.set()  # a no-op unless the caller raised or was interrupted
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


# offsets per block of the p != 2 sum: 4, 8 and 16 run alike at M = 8192
_OFFSETS = 8


def _offset_sums(v, p):
    """S_k = sum_j |v_j - v_{j+k}|^p for k = 1..M-1, from k <= M/2.

    Blocks of _OFFSETS offsets are dealt to the cores by _split; each share
    fills two (_OFFSETS, M) planes of its own in place: each entry sees the
    operations of (d.real ** 2 + d.imag ** 2) ** (p / 2) in that order, and
    each row is summed like one np.sum, so the sums are those of a loop over
    single offsets, bit for bit.
    """
    m, half = v.size, v.size // 2
    parts = [np.ascontiguousarray(c(v), float) for c in (np.real, np.imag)]
    windows = [sliding_window_view(np.concatenate((c, c)), m) for c in parts]
    sums = np.empty(m - 1)

    def share(blocks):
        plane, scratch = np.empty((2, min(_OFFSETS, half), m))
        for i in blocks:
            k = 1 + i * _OFFSETS
            n = min(_OFFSETS, half + 1 - k)
            d, t = plane[:n], scratch[:n]
            np.subtract(parts[0], windows[0][k:k + n], out=d)
            d **= 2
            np.subtract(parts[1], windows[1][k:k + n], out=t)
            t **= 2
            d += t
            d **= p / 2.0
            d.sum(axis=1, out=sums[k - 1:k - 1 + n])

    _split(-(-half // _OFFSETS), share)
    sums[m - half - 1:] = sums[half - 1::-1]  # S_{M-k} = S_k
    return sums


def gagliardo_seminorm(h, s, p):
    """Gagliardo W^{s,p} semi-norm by the periodic double sum.

    Kernel distance is arc length on S^1; the diagonal is excluded and the
    nearest-neighbor term reduces to the difference-quotient convention.
    The offset sums S_k = sum_j |v_j - v_{j+k}|^p satisfy S_k = S_{M-k}, so
    only k <= M/2 is summed.  At p = 2 all of them come from one FFT
    autocorrelation, S_k = 2 sum |v|^2 - 2 Re corr(k), in O(M log M).
    A constant is 0 at any p; a sum that leaves the floating-point range
    (at a large p) raises IndexOutOfRange.
    """
    if not (0.0 < s < 1.0):
        raise IndexOutOfRange(f"Gagliardo index needs 0 < s < 1, got {s}")
    if p < 1:
        raise IndexOutOfRange(f"need p >= 1, got {p}")
    v = _values(h)
    m = v.size
    if p != 2 and m > _MAX_NODES_P:
        raise IndexOutOfRange(
            f"the Gagliardo sum at p != 2 costs O(M^2) and takes at most "
            f"{_MAX_NODES_P} nodes, got {m}: use --p 2 or a coarser grid")
    dtheta = TWO_PI / m
    k = np.arange(1, m)
    dist = dtheta * np.minimum(k, m - k)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if p == 2:
            v = v - np.mean(v)  # differences are unchanged; the energy shrinks
            corr = np.fft.ifft(np.abs(np.fft.fft(v)) ** 2).real
            offset_sums = 2.0 * (corr[0] - corr[1:])
        else:
            offset_sums = _offset_sums(v, p)
        if not np.any(offset_sums):
            return 0.0
        value = (np.sum(offset_sums / dist ** (1.0 + s * p))
                 * dtheta ** 2) ** (1.0 / p)
    if not np.isfinite(value):
        raise IndexOutOfRange(
            f"the Gagliardo sum at (s, p) = ({s:g}, {p:g}) leaves the "
            f"floating-point range: use a smaller p")
    return value


# rows per block of the dense kernels: one block holds _ROWS x N values
_ROWS = 64


def _symmetric_form(w, new_block):
    """w @ A @ w for a symmetric N x N matrix A given by row blocks.

    new_block() returns a function block(a, b) with working planes of its
    own; block(a, b) returns A[a:b, a:], the rows a..b-1 from the diagonal
    on, and each block off the diagonal stands for its mirror image too.
    The row blocks are dealt to the cores by _split, one new_block() per
    share, and their terms are added here in row order.
    """
    terms = np.empty(-(-w.size // _ROWS))

    def share(blocks):
        block = new_block()
        for i in blocks:
            a = i * _ROWS
            b = min(a + _ROWS, w.size)
            u = w[a:b] @ block(a, b)
            terms[i] = u[:b - a] @ w[a:b] + 2.0 * (u[b - a:] @ w[b:])

    _split(terms.size, share)
    total = 0.0
    for term in terms:
        total += term
    return float(total)


def gagliardo_even(values, radii, s, p):
    """Gagliardo semi-norm on the circle of an even profile h(theta) =
    H(|theta|) sampled at radius nodes in (0, pi].

    Works directly on the half-domain with the reflected kernel
    k(|x-y|) + k(x+y), so nodes can sit arbitrarily deep (e.g. 1e-19)
    without the cancellation a mirrored 2*pi - r node set would suffer.
    The kernel matrix is summed over its upper block triangle, in row
    blocks split across the cores.
    """
    if not (0.0 < s < 1.0):
        raise IndexOutOfRange(f"Gagliardo index needs 0 < s < 1, got {s}")
    v = np.asarray(values, dtype=float)
    r = np.asarray(radii, dtype=float)
    if r.size > _MAX_NODES_P:
        raise ParameterError(
            f"the even Gagliardo sum costs O(N^2) and takes at most "
            f"{_MAX_NODES_P} nodes, got {r.size}")
    gaps = np.diff(np.concatenate(([0.0], r, [PI])))
    w = 0.5 * (gaps[:-1] + gaps[1:])
    q = 1.0 + s * p

    def new_block():
        # one kernel plane and one scratch plane, reused by the share's blocks
        flat = np.empty((2, min(_ROWS, r.size) * r.size))

        def block(a, b):
            kern, tmp = (x[:(b - a) * (r.size - a)].reshape(b - a, -1)
                         for x in flat)
            # the reflected term first: the sum k(|x-y|) + k(x+y) commutes
            np.add(r[a:b, None], r[None, a:], out=tmp)
            np.subtract(TWO_PI, tmp, out=kern)
            np.minimum(tmp, kern, out=kern)
            kern **= q
            np.divide(1.0, kern, out=kern)
            np.subtract(r[a:b, None], r[None, a:], out=tmp)
            np.abs(tmp, out=tmp)
            np.fill_diagonal(tmp, 1.0)
            tmp **= q
            np.divide(1.0, tmp, out=tmp)
            np.fill_diagonal(tmp, 0.0)
            kern += tmp
            np.subtract(v[a:b, None], v[None, a:], out=tmp)
            np.abs(tmp, out=tmp)
            tmp **= p
            kern *= tmp
            return kern

        return block

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = (2.0 * _symmetric_form(w, new_block)) ** (1.0 / p)
    if not np.isfinite(value):
        raise IndexOutOfRange(
            f"the even Gagliardo sum at (s, p) = ({s:g}, {p:g}) leaves the "
            f"floating-point range on nodes {np.min(gaps[:-1]):.3g} apart")
    return value


def _difference(h, g):
    return h if g is None else _values(h) - _values(g)


def _require_maps(method, *maps):
    """Bare samples carry no grid or phase; these methods need both."""
    for v in maps:
        if v is not None and not isinstance(v, CircleMap):
            raise NotACircleMap(
                f"{method} takes circle maps, got {type(v).__name__}")


def _w1p_method(h, g, index):
    _require_maps("w1p_quadrature", h, g)
    return w1p_distance(h, grid.power_map(0, h.m) if g is None else g, index.p)


def _sup_method(h, g, index):
    if g is None:
        return float(np.max(np.abs(_values(h))))
    _require_maps("sup_norm", h, g)
    return sup_distance(h, g)


# name: (CLI alias, whether it measures the index (s, p), evaluator taking
# (h, g or None, index)), in the order the CLI prints them
METHODS = {
    "w1p_quadrature": ("w1p", lambda s, p: s == 1.0, _w1p_method),
    "gagliardo_quadrature": (
        "gagliardo", lambda s, p: s < 1.0,
        lambda h, g, index: gagliardo_seminorm(
            _difference(h, g), index.s, index.p)),
    "fourier_h_half": (
        "fourier", lambda s, p: (s, p) == (0.5, 2.0),
        lambda h, g, index: h_half_distance(h, g)),
    "sup_norm": ("sup", lambda s, p: s <= 1.0, _sup_method),
}


def select_methods(index, method=None):
    """The method named (by name or CLI alias), or else every method that
    measures index."""
    if method is not None:
        for name, (alias, _, _) in METHODS.items():
            if method in (name, alias):
                return [name]
        raise ValueError(f"unknown method {method!r}; known: "
                         f"{', '.join(m[0] for m in METHODS.values())}")
    names = [name for name, (_, measures, _) in METHODS.items()
             if measures(index.s, index.p)]
    if not names:
        raise IndexOutOfRange(
            f"no method measures (s, p) = ({index.s:g}, {index.p:g})")
    return names


def seminorm(h, index, method, g=None):
    """Uniform entry point returning a SeminormResult (used by the CLI)."""
    for v in (h, g):
        if v is not None and not isinstance(v, CircleMap) and np.ndim(v) != 1:
            raise NotACircleMap(
                f"semi-norms take circle maps, got {type(v).__name__}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _, measures, evaluate = METHODS[method]
    if not measures(index.s, index.p):
        raise IndexOutOfRange(f"{method} does not measure (s, p) = "
                              f"({index.s:g}, {index.p:g})")
    size = h.m if isinstance(h, CircleMap) else _values(h).size
    return SeminormResult(float(evaluate(h, g, index)), index, size, method)
