"""Smooth cutoff profiles built from exp(-1/t) mollifiers.

All plateaus evaluate to exactly 0.0 or 1.0 in floating point, so
multiplier supports are hard (identically zero outside the stated
radii, not merely small).
"""

from __future__ import annotations

import numpy as np


def _mollifier(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, hard zero for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t) -> np.ndarray:
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = _mollifier(t)
    b = _mollifier(1.0 - t)
    return a / (a + b)


def rising(t, lo: float, hi: float) -> np.ndarray:
    """Smooth 0 -> 1 transition over [lo, hi]."""
    return smooth_step((np.asarray(t, dtype=float) - lo) / (hi - lo))


def falling(t, lo: float, hi: float) -> np.ndarray:
    """Smooth 1 -> 0 transition over [lo, hi]."""
    return 1.0 - rising(t, lo, hi)


class BumpProfile:
    """Radial profile u: [0, inf) -> [0, 1], the standard bump: u = 1 on
    [0, 1/2], u = 0 for t >= 1, strictly decreasing in between."""

    def __call__(self, t) -> np.ndarray:
        return falling(t, 0.5, 1.0)
