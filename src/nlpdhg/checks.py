"""The package's argument checks, one wording each: a finite real, a count,
an array of finite reals. A bool is no number here, and complex data is
refused, not cut to its real part. Nothing from the package is imported, so
every module can use them."""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["check_real", "check_count", "check_finite", "real_array"]


def check_real(name, value, positive):
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    number (not a bool) that is > 0 if ``positive``, else >= 0."""
    # A float or an int skips the slower abstract-class test.
    kind = type(value)
    if kind is float or kind is int or (isinstance(value, numbers.Real) and kind is not bool):
        if math.isfinite(value) and (value > 0 if positive else value >= 0):
            return float(value)
    bound = "> 0" if positive else ">= 0"
    raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def check_count(name, value, least):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (not a bool) of at least ``least``."""
    kind = type(value)
    if kind is int or (isinstance(value, numbers.Integral) and kind is not bool):
        if value >= least:
            return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def real_array(value, name):
    """``value`` as a float array (a float one as itself); ValueError naming
    ``name`` if it is complex, whose imaginary part a float cast drops."""
    a = np.asarray(value)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex entries")
    return a.astype(float, copy=False)


def check_finite(value, name):
    """``real_array(value, name)``, with a ValueError naming ``name`` unless
    every entry is finite. A finite sum proves that in one pass with no
    temporary; only an array whose sum overflows needs the entrywise scan."""
    a = real_array(value, name)
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    if not (math.isfinite(total) or np.isfinite(a).all()):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a
