"""Smooth cutoff profiles built from exp(-1/t) mollifiers.

All plateaus evaluate to exactly 0.0 or 1.0 in floating point, so
multiplier supports are hard (identically zero outside the stated
radii, not merely small).  smooth_step writes the plateaus directly and
runs its two exponentials only on the transition tiny <= t < 1, tiny the
smallest normal float.  On the plateaus the full quotient a / (a + b) is
0 / b = 0.0 or a / a = 1.0 (a subnormal t gives a = 0.0, though -1/t
overflows), so no value changes.
"""

from __future__ import annotations

import numpy as np

_TINY = float(np.finfo(float).tiny)


def smooth_step(t) -> np.ndarray:
    """C-infinity monotone step a / (a + b), a = exp(-1/t), b = exp(-1/(1-t)):
    exactly 0.0 for t <= 0, 1.0 for t >= 1, and nan for nan."""
    t = np.asarray(t, dtype=float)
    top = t >= 1.0
    out = np.asarray(top, dtype=float)
    # nan is in neither plateau, so it takes the transition and stays nan
    mid = ~(top | (t < _TINY))
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out if out.ndim else out[()]


def rising(t, lo: float, hi: float) -> np.ndarray:
    """Smooth 0 -> 1 transition over [lo, hi]."""
    return smooth_step((np.asarray(t, dtype=float) - lo) / (hi - lo))


def falling(t, lo: float, hi: float) -> np.ndarray:
    """Smooth 1 -> 0 transition over [lo, hi]."""
    return 1.0 - rising(t, lo, hi)


def bump(t) -> np.ndarray:
    """Radial profile u: [0, inf) -> [0, 1], the standard bump: u = 1 on
    [0, 1/2], u = 0 for t >= 1, strictly decreasing in between."""
    return falling(t, 0.5, 1.0)
