"""Exception and warning types shared across the package."""


class GridTooCoarse(ValueError):
    """Adjacent samples are more than pi apart, so the lift is ambiguous."""


class GridMismatch(ValueError):
    """Two maps live on grids of different sizes."""


class MissingDerivative(ValueError):
    """A non-smooth map arrived without its analytic phase derivative."""


class NotLocallyConstant(ValueError):
    """gallery.deflate_phase got a map f that varies on [0, lam]."""


class InvalidProfile(ValueError):
    """A radial profile violates its boundary conditions."""


class NotACircleMap(ValueError):
    """A circle-map operation received something else (e.g. an S^2 map)."""


class IndexOutOfRange(ValueError):
    """A Sobolev index (s, p) is outside the supported range."""


class ParameterError(ValueError):
    """A named parameter is unknown, missing, not a number, or not integral."""


class Overcrowded(ValueError):
    """Requested bumps do not fit disjointly in the available region."""


class PoleSingularity(RuntimeWarning):
    """Gradient quadrature near a sphere pole looks unresolved."""
