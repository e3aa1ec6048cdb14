"""One coercion path for every named parameter: map and pair specs,
experiment and sweep parameters.

A table maps each key to a type (int or float: the key is required) or to a
default of the key's type.  A tuple default takes one value or more, as a
comma list or a sequence; a None default is an optional integer (a grid
size).  Raw values are numbers or strings; integers must be integral and
every number finite.
"""

import math

import numpy as np

from .errors import ParameterError


def _number(key, raw, kind):
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ParameterError(f"{key}={raw} is not a number") from None
    if not math.isfinite(val):
        raise ParameterError(f"{key}={raw} is not finite")
    if kind is float:
        return val
    if not val.is_integer():
        raise ParameterError(f"{key} must be an integer, got {raw}")
    return int(val)


def coerce(table, raw, what):
    """Typed values for every key of table, from the raw values given.

    Raises ParameterError for a key the table lacks, a required key that is
    missing, and a value of the wrong kind; what names the owner in the
    message."""
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ParameterError(f"unknown parameters for {what}: {unknown}; "
                             f"known: {', '.join(table)}")
    out = {}
    for key, spec in table.items():
        if key not in raw:
            if isinstance(spec, type):
                raise ParameterError(f"{what} needs the parameter {key}")
            out[key] = spec
        elif isinstance(spec, tuple):
            val = raw[key]
            items = val.split(",") if isinstance(val, str) else np.ravel(val)
            if len(items) == 0:
                raise ParameterError(f"{key} needs at least one value")
            out[key] = tuple(_number(key, x, type(spec[0])) for x in items)
        else:
            kind = int if spec is None else (
                spec if isinstance(spec, type) else type(spec))
            out[key] = _number(key, raw[key], kind)
    return out
