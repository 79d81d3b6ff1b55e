"""Exception hierarchy for the toolkit, the checked conversion and schema walk
of values read from outside it, and the seed rule every seeded entry point keeps."""

from numbers import Integral

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ToolkitError):
    """A parameter is outside its admissible range."""


class InvalidInputError(ToolkitError):
    """Input data is malformed (non-finite samples, wrong shape)."""


class DimensionError(ToolkitError):
    """Grid specs of the operands do not agree."""


class ConstructionError(ToolkitError):
    """A construction-time invariant failed (normalization, coverage)."""


class ResolutionError(ToolkitError):
    """The grid or sampling is too coarse for the requested operation."""


class DegenerateInputError(ToolkitError):
    """An input field is numerically zero where a ratio is required."""


def _convert(name: str, kind, val):
    """kind(val), or ParameterError; a bool, read as 0 or 1 by int() and float(), and
    a float that int() would truncate are refused."""
    if isinstance(val, bool):
        raise ParameterError(f"{name}={val!r} is not {kind.__name__}")
    try:
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name}={val!r} is not {kind.__name__}") from None
    if kind is int and isinstance(val, float) and out != val:  # int() truncates
        raise ParameterError(f"{name}={val!r} is not an integer")
    return out


def _read(doc, schema, error):
    """doc read by schema, or error(msg) naming the value's path (grid.N, bands[0].k).
    A dict schema is an object of those optional keys, `[schema]` a list of them; a type
    goes through _convert, but `str` (a file name) must be a string and None keeps the
    value.  Every key no dict lists, at every level, is named in one error at the end."""
    unknown = []

    def walk(val, schema, where):
        if isinstance(schema, dict):
            if not isinstance(val, dict):
                raise error(f"{where} {val!r} is not a JSON object".lstrip())
            at = {key: f"{where}.{key}" if where else key for key in val}
            unknown.extend(at[key] for key in val if key not in schema)
            return {key: walk(v, schema[key], at[key]) for key, v in val.items() if key in schema}
        if isinstance(schema, list):
            if not isinstance(val, list):
                raise error(f"{where} {val!r} is not a list")
            return [walk(v, schema[0], f"{where}[{i}]") for i, v in enumerate(val)]
        if schema is str and not isinstance(val, str):
            raise error(f"{where}={val!r} must be a file name")
        if schema in (None, str):
            return val
        try:
            return _convert(where, schema, val)
        except ParameterError as exc:
            raise error(str(exc)) from None

    out = walk(doc, schema, "")
    if unknown:
        raise error(f"has unknown keys {unknown}")
    return out


def _rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed); a bool, non-integer or negative seed is a ParameterError."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise ParameterError(f"seed={seed!r} must be an integer")
    if seed < 0:
        raise ParameterError(f"seed={seed} must be non-negative")
    return np.random.default_rng(seed)
