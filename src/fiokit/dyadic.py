"""Dyadic (Littlewood-Paley) frequency decompositions.

Builds the telescoping family psi_j from a single smooth low-pass
profile, so the partition of unity holds exactly on the lattice, plus
the auxiliary wide cutoffs psi~_k, the band family chi_k (the psi_j
themselves) and the low-frequency cutoff q.  All supports are hard
zeros inherited from the mollifier profiles.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .grid import (
    GridField,
    GridSpec,
    SpectralMultiplier,
    _check_specs,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    lattice,
    lp_norm,
)
from .profiles import falling, rising


class LittlewoodPaleyFamily:
    """Multipliers psi_j, j = 0..J_max, with Sum_j psi_j = 1 on the lattice.

    psi_0 caps |xi| <= 1 - eps/2, psi_1 lives on ((1+eps)/2, 2-eps), and
    psi_j(xi) = psi_1(2^{1-j} xi) for j >= 2.  The family telescopes a
    low-pass profile h: psi_j = h(2^{-j}|xi|) - h(2^{1-j}|xi|), unnormalized,
    and the lattice sum is h(2^{-J_max}|xi|) = 1 exactly in floating point:
    h leaves {0, 1} on less than an octave, so at any radius at most one
    h(2^{-j} rho) is fractional and the sum is fl(h + fl(1 - h)) = 1.
    """

    def __init__(self, spec: GridSpec, eps: float = 0.125):
        if not (0.0 < eps < 0.25):
            raise ParameterError(f"eps={eps} must lie in (0, 1/4)")
        self.spec = spec
        self.eps = eps
        self.J_max = int(np.ceil(np.log2(spec.xi_max))) + 1
        mags = lattice(spec).mags
        self.values = [self.band_profile(j, mags) for j in range(self.J_max + 1)]

    def lowpass_profile(self, t) -> np.ndarray:
        """h(t): 1 for t <= (1+eps)/2, 0 for t >= 1 - eps/2."""
        return falling(t, (1.0 + self.eps) / 2.0, 1.0 - self.eps / 2.0)

    def band_profile(self, j: int, rho) -> np.ndarray:
        """Analytic radial profile of psi_j, usable off-lattice."""
        rho = np.asarray(rho, dtype=float)
        if j < 0:
            return np.zeros_like(rho)
        if j == 0:
            return self.lowpass_profile(rho)
        return self.lowpass_profile(rho * 2.0**-j) - self.lowpass_profile(rho * 2.0 ** (1 - j))

    def band_weights(self, rho: float) -> np.ndarray:
        """[psi_0(rho), ..., psi_J_max(rho)] for a scalar rho from one low-pass
        call: h(2^{-j} rho) telescoped.  Scaling by 2^{-j} is exact, so entry j
        equals band_profile(j, rho) bit for bit."""
        h = self.lowpass_profile(np.ldexp(float(rho), -np.arange(self.J_max + 1)))
        h[1:] -= h[:-1]
        return h

    def multiplier(self, j: int) -> SpectralMultiplier:
        if not (0 <= j <= self.J_max):
            raise ParameterError(f"band index j={j} outside 0..{self.J_max}")
        return SpectralMultiplier(self.spec, self.values[j])

    def bands(self, f: GridField, js=None):
        """Yield (j, samples of psi_j(D) f) for each j in js (default: every
        band, in order), from one forward transform of f."""
        _check_specs(self.spec, f.spec)
        spectrum = forward_transform(f)
        for j in range(self.J_max + 1) if js is None else js:
            yield j, self._band(spectrum, j)

    def _band(self, spectrum: np.ndarray, j: int) -> np.ndarray:
        """Samples of psi_j(D) f, from spectrum = forward_transform(f)."""
        if not (0 <= j <= self.J_max):
            raise ParameterError(f"band index j={j} outside 0..{self.J_max}")
        return inverse_transform(self.values[j] * spectrum, self.spec).samples


def low_cutoff(rho) -> np.ndarray:
    """The low cutoff q: 1 on |zeta| <= 2, 0 beyond 4."""
    return falling(np.asarray(rho, dtype=float), 2.0, 4.0)


class AuxiliaryFamilies(LittlewoodPaleyFamily):
    """The family psi_j, which is also the chi band family, with the wide
    cutoffs psi~_k, psi~_k psi_k = psi_k, and the low cutoff q."""

    q_profile = staticmethod(low_cutoff)
    psi = chi = property(lambda self: self)

    def __init__(self, spec: GridSpec, eps: float = 0.125):
        super().__init__(spec, eps)
        self.q_values = self.q_profile(lattice(spec).mags)

    def tilde_profile(self, k: int, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if k == 0:
            return falling(rho, 1.0, 2.0)
        t = rho * 2.0 ** (1 - k)
        return rising(t, 0.5, (1.0 + self.eps) / 2.0) * falling(t, 2.0 - self.eps, 2.0)

    def tilde_multiplier(self, k: int) -> SpectralMultiplier:
        if not (0 <= k <= self.J_max):
            raise ParameterError(f"band index k={k} outside 0..{self.J_max}")
        return SpectralMultiplier(self.spec, self.tilde_profile(k, lattice(self.spec).mags))


def build_lp_family(spec: GridSpec, eps: float = 0.125) -> LittlewoodPaleyFamily:
    return LittlewoodPaleyFamily(spec, eps)


def build_auxiliary(spec: GridSpec, eps: float = 0.125) -> AuxiliaryFamilies:
    return AuxiliaryFamilies(spec, eps)


def lp_project(f: GridField, j: int, fam: LittlewoodPaleyFamily) -> GridField:
    return apply_multiplier(f, fam.multiplier(j))


def square_function_norm(f: GridField, s: float, p: float, fam: LittlewoodPaleyFamily) -> float:
    """L^p norm of the dyadic square function (Sum_k 4^{ks}|chi_k(D)f|^2)^{1/2}."""
    acc = np.zeros(f.spec.shape)
    for k, fk in fam.bands(f):
        acc += 4.0 ** (k * s) * np.abs(fk) ** 2
    return lp_norm(GridField(f.spec, np.sqrt(acc)), p)
