"""Dyadic (Littlewood-Paley) frequency decompositions.

Builds the telescoping family psi_j from a single smooth low-pass
profile, so the partition of unity holds exactly on the lattice, plus
the auxiliary wide cutoffs psi~_k, the band family chi_k (the psi_j
themselves) and the low-frequency cutoff q.  All supports are hard
zeros inherited from the mollifier profiles.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, _integer
from .grid import (
    GridField,
    GridSpec,
    SpectralMultiplier,
    _check_specs,
    _quiet,
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
        for v in self.values:  # shared by every reader of the family: read-only
            v.flags.writeable = False

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

    def radial_sum(self, grids: dict):
        """eta -> Sum_k psi_k(|eta|) grids[k], for x-grids keyed by band.  A dict keyed by
        the radius holds, from one band_weights call per new radius, the (grids[k], w_k)
        with w_k != 0 in the order of grids: at most two, as only adjacent bands overlap.
        The sum is grids[j] itself when w_j = 1 is alone, grids[j] w_j + w_k grids[k] when
        two are nonzero, and a zero grid when none is; a caller must not write into it.  The
        dict holds references and floats, no grid: densify's lattice walk adds 505 entries at
        N = 64, L = 8 pi and 1 831 at N = 128, L = 2 pi (0.11 and 0.51 MB), each new radius one."""
        terms = {}

        def fn(eta):
            rho = float(np.hypot(eta[0], eta[1]))
            pairs = terms.get(rho)
            if pairs is None:
                w = self.band_weights(rho).tolist()
                pairs = terms[rho] = [(g, w[k]) for k, g in grids.items() if w[k] != 0.0]
            if not pairs:
                return np.zeros(self.spec.shape, dtype=complex)
            (g_j, w_j), *rest = pairs
            if not rest and w_j == 1.0:
                return g_j
            out = g_j * w_j
            for g_k, w_k in rest:
                out += w_k * g_k
            return out

        return fn

    def multiplier(self, j: int) -> SpectralMultiplier:
        if _integer("band index j", j, 0) > self.J_max:
            raise ParameterError(f"band index j={j} outside 0..{self.J_max}")
        return SpectralMultiplier(self.spec, self.values[j])

    def tilde_profile(self, k: int, rho) -> np.ndarray:
        """Radial profile of the wide cutoff psi~_k, with psi~_k psi_k = psi_k."""
        rho = np.asarray(rho, dtype=float)
        if k == 0:
            return falling(rho, 1.0, 2.0)
        t = rho * 2.0 ** (1 - k)
        return rising(t, 0.5, (1.0 + self.eps) / 2.0) * falling(t, 2.0 - self.eps, 2.0)

    def tilde_multiplier(self, k: int) -> SpectralMultiplier:
        if _integer("band index k", k, 0) > self.J_max:
            raise ParameterError(f"band index k={k} outside 0..{self.J_max}")
        return SpectralMultiplier(self.spec, self.tilde_profile(k, lattice(self.spec).mags))

    def bands(self, f: GridField):
        """Yield (j, samples of psi_j(D) f) for every band j in order, from one
        forward transform of f."""
        _check_specs(self.spec, f.spec)
        spectrum = forward_transform(f)
        for j in range(self.J_max + 1):
            yield j, self._band(spectrum, j)

    def _band(self, spectrum: np.ndarray, j: int) -> np.ndarray:
        """Samples of psi_j(D) f, 0 <= j <= J_max, from spectrum = forward_transform(f)."""
        return inverse_transform(self.values[j] * spectrum, self.spec).samples


def low_cutoff(rho) -> np.ndarray:
    """The low cutoff q: 1 on |zeta| <= 2, 0 beyond 4."""
    return falling(np.asarray(rho, dtype=float), 2.0, 4.0)


# the factory spelling that perfbench reaches by name
build_lp_family = LittlewoodPaleyFamily


def _family(fam: LittlewoodPaleyFamily | None, spec: GridSpec) -> LittlewoodPaleyFamily:
    """fam, checked to lie on spec (DimensionError), or spec's own family when fam is None."""
    if fam is None:
        return LittlewoodPaleyFamily(spec)
    _check_specs(fam.spec, spec)
    return fam


def lp_project(f: GridField, j: int, fam: LittlewoodPaleyFamily) -> GridField:
    return apply_multiplier(f, fam.multiplier(j))


@_quiet
def square_function_norm(f: GridField, s: float, p: float, fam: LittlewoodPaleyFamily) -> float:
    """L^p norm of the dyadic square function (Sum_k 4^{ks}|chi_k(D)f|^2)^{1/2}; inf on overflow."""
    acc = np.zeros(f.spec.shape)
    for k, fk in fam.bands(f):
        # an overflowed weight is inf, and a band that is exactly 0 adds 0, not inf * 0
        if (mod2 := np.abs(fk) ** 2).any():
            acc += np.power(4.0, k * s) * mod2
    # GridField refuses the inf grid of a sum that overflowed, whose norm is inf
    return lp_norm(GridField(f.spec, np.sqrt(acc)), p) if np.isfinite(acc).all() else np.inf
