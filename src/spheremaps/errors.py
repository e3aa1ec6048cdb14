"""Exception and warning types shared across the package."""


class GridTooCoarse(ValueError):
    """A grid cannot resolve its map: circle samples more than pi apart or a
    lift that does not close, a phase model that steps pi or more from one
    node to the next, a circle size not a power of two >= 16, more ansatz
    modes than nodes, a bump radius under 6 sphere rows, or fewer than
    max(1, 5|w|) sphere rows for a winding w (|w| > 204 exceeds the cap)."""


class GridMismatch(ValueError):
    """Two maps live on grids of different sizes."""


class MissingDerivative(ValueError):
    """A non-smooth map arrived without its analytic phase derivative."""


class NotLocallyConstant(ValueError):
    """gallery.deflate_phase got a map f that varies on [0, lam]."""


class NotACircleMap(ValueError):
    """A circle-map operation received something else (e.g. an S^2 map)."""


class IndexOutOfRange(ValueError):
    """A Sobolev index (s, p) is outside the supported range."""


class ParameterError(ValueError):
    """A parameter is unknown, missing, not a number, not integral or out of
    its range, or asks for more grid nodes or breakpoints than the cap."""


class Overcrowded(ValueError):
    """Requested bumps do not fit disjointly in the available region."""


class PoleSingularity(RuntimeWarning):
    """Gradient quadrature near a sphere pole looks unresolved."""
