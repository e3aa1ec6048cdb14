"""The one coercion path for named parameters."""

import math

import pytest

from spheremaps.errors import ParameterError
from spheremaps.params import coerce

TABLE = {"d": int, "delta": float, "n": 32, "eps": (1e-2, 1e-3),
         "ds": (1, 2), "m": None}


class TestCoerce:
    def test_defaults_fill_missing_optional_keys(self):
        assert coerce(TABLE, {"d": "2", "delta": "0.5"}, "t") == {
            "d": 2, "delta": 0.5, "n": 32, "eps": (1e-2, 1e-3),
            "ds": (1, 2), "m": None}

    def test_strings_and_numbers_coerce_alike(self):
        raw = {"d": "-3", "delta": "1", "n": "2.0", "eps": "1e-4",
               "ds": "3,4", "m": "1024"}
        num = {"d": -3, "delta": 1, "n": 2.0, "eps": 1e-4, "ds": [3, 4],
               "m": 1024}
        assert coerce(TABLE, raw, "t") == coerce(TABLE, num, "t") == {
            "d": -3, "delta": 1.0, "n": 2, "eps": (1e-4,), "ds": (3, 4),
            "m": 1024}
        out = coerce(TABLE, raw, "t")
        assert type(out["n"]) is int and type(out["delta"]) is float

    @pytest.mark.parametrize("raw", [
        {"delta": 0.5},                       # missing required key
        {"d": 1, "delta": 0.5, "zz": 3},      # unknown key
        {"d": 1.5, "delta": 0.5},             # non-integral integer
        {"d": "1,2", "delta": 0.5},           # list for a scalar
        {"d": 1, "delta": "x"},               # not a number
        {"d": 1, "delta": math.nan},          # not finite
        {"d": 1, "delta": "inf"},
        {"d": 1, "delta": 0.5, "m": 64.5},
        {"d": 1, "delta": 0.5, "ds": "1,2.5"},
        {"d": 1, "delta": 0.5, "ds": ""},
        {"d": 1, "delta": 0.5, "ds": ()},     # empty list
    ])
    def test_misuse_raises_parameter_error(self, raw):
        with pytest.raises(ParameterError):
            coerce(TABLE, raw, "t")
