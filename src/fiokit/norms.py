"""Function-space norms and exponent bookkeeping.

Classical Bessel-Sobolev norms, the Zygmund norm, the directional-
decomposition norm

    ||f|| = ||q(D) f||_p + (sum_l w_l ||phi_{omega_l}(D) f||_{H^{s,p}}^p)^{1/p},

and the loss/smoothing exponents (tau, gamma, sigma, rho) together
with the admissible smoothness interval they determine.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyadic import LittlewoodPaleyFamily, _family
from .errors import ParameterError
from .grid import (
    GridField,
    _bessel_weighted,
    _check_p,
    _check_specs,
    _quiet,
    _sq_sum,
    bessel_potential,
    forward_transform,
    inverse_transform,
    lp_norm,
)
from .parabolic import ParabolicFrame


def sobolev_s(p: float, n: int) -> float:
    """s(p) = (n-1)/2 |1/p - 1/2|."""
    if not (1.0 <= p <= np.inf):
        raise ParameterError(f"p={p} out of range")
    return (n - 1) / 2.0 * abs(1.0 / p - 0.5)


def classical_norm(f: GridField, s: float, p: float) -> float:
    """Bessel-Sobolev norm ||<D>^s f||_{L^p}."""
    # a |<D>^s f|^p that overflows is refused here, without a warning first
    return float(_finite(lp_norm(bessel_potential(f, s), p), s, p))


def _finite(value, s: float, p: float):
    """value, refused when any of it overflowed to inf or nan: s is too large for this field."""
    if not np.isfinite(value).all():
        raise ParameterError(f"the H^(s,p) norm with s={s}, p={p} overflows on this field")
    return value


def _check_regularity(r: float, J_max: int):
    """Refuse an r that is not positive and finite, or whose 2^(J_max r) overflows."""
    if not 0 < r < np.inf:
        raise ParameterError(f"regularity r={r} must be positive and finite")
    if J_max * r >= 1024:
        raise ParameterError(f"regularity r={r}: 2^(J_max r) overflows at J_max={J_max}, "
                             f"r must be below {1024 / J_max:g}")


def zygmund_norm(f: GridField, r: float, fam: LittlewoodPaleyFamily | None = None) -> float:
    """sup_j 2^{jr} max_x |psi_j(D) f(x)| over the finite band range.

    psi_j(D) f(x) = L^-n sum_xi psi_j(xi) f^(xi) e^{ix.xi}, so
    B_j = 2^{jr} L^-n sum |psi_j| |f^| (1 + 1e-9) bounds band j's term; the
    1e-9 margin is far above the ~1e-14 relative rounding of the inverse
    transform and of the sum.  From one forward transform, the bands run
    in decreasing B_j until a bound falls strictly below the largest term
    found, when no band left can exceed it.  The maximum of the terms
    transformed is the same float as the maximum over every band.
    """
    fam = _family(fam, f.spec)
    _check_regularity(r, fam.J_max)
    spectrum = forward_transform(f)
    modulus = np.abs(spectrum)
    scale = f.spec.L**-f.spec.n * (1.0 + 1e-9)
    bounds = [2.0 ** (j * r) * scale * float(np.einsum("ij,ij->", v, modulus))
              for j, v in enumerate(fam.values)]
    best = 0.0
    for j in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
        if bounds[j] < best:
            break
        best = max(best, 2.0 ** (j * r) * float(np.abs(fam._band(spectrum, j)).max()))
    return best


def hpfio_norm(f: GridField, s: float, p: float, frame: ParabolicFrame) -> float:
    """Directional-decomposition norm, without a full-grid inverse FFT per
    direction.

    With g_l = phi_l(D) <D>^s f:

    - p = 2: by Parseval, sum_l w_l ||g_l||_2^2 = L^-n sum E |<xi>^s f^|^2
      with E = frame.energy = sum_l w_l phi_l^2, and ||q(D) f||_2 likewise.
      No direction is visited and no inverse FFT runs.
    - p != 2: frame.parts returns each g_l to x with line-pruned inverse
      passes, and _direction_powers reduces it to ||g_l||_p^p.  A
      direction whose coefficients are all exactly zero adds exactly 0
      and is not yielded.  Directions run on a thread pool sized to the
      CPUs this process may use; each worker walks its own directions with
      its own scratch grids and writes their powers into one shared array
      (the indices are disjoint).  The terms are summed in direction
      order, so the result does not depend on thread scheduling.

    <xi>^s f^ is formed where f^ != 0 only, and refused before any
    direction runs when a weight overflows on that support.  A result that
    overflowed to inf or nan raises ParameterError naming s and p, with no
    RuntimeWarning first, in the caller's thread or a worker's.
    """
    _check_p(p)
    if not np.isfinite(s):
        raise ParameterError("smoothness s must be finite")
    _check_specs(f.spec, frame.spec)
    spec = f.spec
    spectrum = forward_transform(f)
    low = frame.q_values * spectrum
    weighted = _finite(_bessel_weighted(spec, s, spectrum), s, p)
    if p == 2.0:
        volume = spec.L**spec.n
        high = _sq_sum(weighted, frame.energy) / volume
        return float(_finite(np.sqrt(_sq_sum(low) / volume) + np.sqrt(high), s, p))
    low_part = lp_norm(inverse_transform(low, spec), p)

    M = frame.n_directions
    W = min(_cpu_count(), M)
    # two grids of work space per worker, allocated here: frame.parts allocating them in
    # the worker threads raised probe_sweep's peak RSS 110.2 -> 114.0 MB (per-thread arenas)
    work = np.empty((W, 2) + spec.shape, dtype=complex)

    powers = np.zeros(M)  # each worker writes its own directions; a silent one stays 0
    with ThreadPoolExecutor(max_workers=W) as pool:
        # list() waits for every worker and re-raises a worker's error here
        list(pool.map(lambda w: _direction_powers(frame.parts(weighted, range(w, M, W), work[w]),
                                                  p, spec, powers), range(W)))
    total = 0.0
    for weight, power in zip(frame.directions.weights, powers):
        total += weight * power
    return float(_finite(low_part + total ** (1.0 / p), s, p))


# error state is per thread, and this runs, with the parts generator, in worker threads
@_quiet
def _direction_powers(parts, p: float, spec, powers):
    """powers[l] = ||g_l||_p^p = dx^n sum |g_l|^p, p != 2, for each (l, g_l = phi_l(D) f,
    spare) that frame.parts yields; spare is a complex grid that is free until the next."""
    for l, g, spare in parts:
        # |g|^2 fills spare's first N^n floats: in g's memory, 80 N = 256 calls took 4.35 -> 5.3 s (2 vCPUs)
        mod2 = spare.view(np.float64).reshape(-1)[: spare.size]
        # g may be a transposed view; the sum runs in memory order
        pairs = g.ravel(order="K").view(np.float64)
        np.square(pairs, out=pairs)
        np.add(pairs[0::2], pairs[1::2], out=mod2)
        np.power(mod2, p / 2.0, out=mod2)
        powers[l] = float(mod2.sum()) * spec.cell_volume


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExponentBudget:
    """Loss and smoothing exponents for a symbol of regularity r, type delta."""

    p: float
    n: int
    r: float
    delta: float
    s_p: float
    tau: float
    gamma: float
    sigma: float
    rho: float
    eps_slack: float
    s_interval: tuple

    def admissible_s(self) -> float:
        """The midpoint of the admissible smoothness interval."""
        lo, hi = self.s_interval
        return lo + 0.5 * (hi - lo)


def budget(r: float, delta: float, p: float, n: int, eps_slack: float = 0.01) -> ExponentBudget:
    """Exponent bookkeeping:

    tau: extra source smoothness at criticality — 0 when r > n-1 or
         s(p) = 0, a small slack at r = n-1, else 2 s(p)(1 - r/(n-1));
    gamma: smoothing split parameter 1/2 + 2 s(p)/max(r, n-1);
    sigma = max(0, 2 s(p) - (1/2 - delta) r);
    rho = max(0, tau - (1/2 - delta) r);
    admissible s: -(1-gamma) r - s(p) < s < r - s(p).
    """
    if not r > 0:
        raise ParameterError(f"r={r} must be positive")
    if not (0.0 <= delta <= 0.5):
        raise ParameterError(f"delta={delta} must lie in [0, 1/2]")
    _check_p(p)
    if not eps_slack > 0:
        raise ParameterError("eps_slack must be positive")
    s_p = sobolev_s(p, n)
    if r > n - 1 or s_p == 0.0:
        tau = 0.0
    elif r == n - 1:
        tau = eps_slack
    else:
        tau = 2.0 * s_p * (1.0 - r / (n - 1))
    gamma = 0.5 + 2.0 * s_p / max(r, float(n - 1))
    sigma = max(0.0, 2.0 * s_p - (0.5 - delta) * r)
    rho = max(0.0, tau - (0.5 - delta) * r)
    interval = (-(1.0 - gamma) * r - s_p, r - s_p)
    return ExponentBudget(p, n, r, delta, s_p, tau, gamma, sigma, rho, eps_slack, interval)
