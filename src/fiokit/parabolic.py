"""Dyadic-parabolic directional decomposition.

For each direction omega on the circle, phi_omega is a frequency
cutoff concentrated on the parabolic sector |zeta^ - omega| <=
2|zeta|^{-1/2}, |zeta| >= 1/8, built as a scale integral

    phi_omega(zeta) = int_0^4 Psi(tau zeta) c_tau u(|zeta^ - omega| / sqrt(tau)) dtau/tau

where u is a directional bump, c_tau the sphere normalization and Psi
a Calderon-normalized radial window.  The reproducing multiplier m is
the exact lattice inverse of the direction-quadrature sum, so
analyze-then-synthesize is an identity (to roundoff) on spectra with
|zeta| >= 1/2.

phi_omega depends on zeta only through (|zeta|, |zeta^ - omega|), so
rotational covariance is exact by construction, and the same routine
evaluates at arbitrary off-lattice points (used for derivative
sampling).

It also gives phi_{g omega}(g zeta) = phi_omega(zeta) for the 8
symmetries g of the square lattice (axis sign flips and the axis swap).
The frame uses this: a direction that is the image g omega of a direction
already built copies that direction's values to the mapped lattice
points, and only the other directions (M/8 + 1 of them when 8 divides M)
run the scale quadrature.  The Nyquist lines (row or column N/2) are the
exception, because negating frequency -N/2 leaves the lattice; a copied
direction evaluates its 2N - 1 points there directly.  The copied
supports are those of direct evaluation exactly, and the values agree
with it to roundoff (about 1e-13: the computed omega_l are symmetric
only to rounding).

The build computes the direction-free polar data of the lattice (rho,
the rho > 1/8 candidates, unit vectors and the omega-free ends of the scale
interval) once, and runs the 96-node scale quadrature over blocks of
points whose (block x nodes) float64 temporaries fit in cache.  A (points
x nodes) array per direction is megabytes at N >= 256, and each one is a
fresh mapping whose pages the kernel must fault in and zero; that churn,
not arithmetic, would be most of the build.  Each point's row is
evaluated and summed on its own, so the blocking changes no bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import low_cutoff
from .errors import ConstructionError, ParameterError, ResolutionError, _integer
from .grid import (
    GridField,
    GridSpec,
    SpectralMultiplier,
    _check_specs,
    _line_inverse,
    apply_multiplier,
    forward_transform,
    lattice,
)
from .profiles import bump

# the node count of the scale quadrature
_N_TAU = 96
# points per quadrature block: a (block x _N_TAU) float64 temporary is 192 KB
_BLOCK = 256


def c_sigma(sigma: float, nodes: int | None = None) -> float:
    """Normalization c_sigma = (int_{S^1} u(|e1 - nu|/sqrt(sigma))^2 dnu)^{-1/2}.

    Periodic trapezoid quadrature on the circle; the node count grows
    like 1/sqrt(sigma) so the shrinking angular support stays resolved.

    u vanishes exactly where chord = |e1 - nu| >= sqrt(sigma), so the
    bump is evaluated only on the two end arcs theta < theta*,
    theta > 2 pi - theta* with theta* = 2 arcsin(sqrt(sigma)/2), widened
    by 2 nodes (the whole circle when sigma >= 4 or the arcs meet).  Its
    squares go into a zeroed array of all the nodes, whose sum adds the
    same numbers in the same order as summing every node's square, so the
    result is the same float.
    """
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ParameterError(f"sigma={sigma} must be positive")
    if nodes is None:
        nodes = max(512, int(np.ceil(2048.0 / np.sqrt(min(sigma, 16.0)))))
    else:
        _integer("nodes", nodes, 1)
    theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    on = _support_nodes(sigma, nodes)
    chord = 2.0 * np.abs(np.sin(theta[on] / 2.0))
    squares = np.zeros(nodes)
    squares[on] = bump(chord / np.sqrt(sigma)) ** 2
    integral = float(squares.sum() * 2.0 * np.pi / nodes)
    if integral < 1e-14:
        raise ResolutionError(f"sphere quadrature unresolved at sigma={sigma}")
    return integral ** -0.5


def _support_nodes(sigma: float, nodes: int):
    """Indices of the c_sigma nodes theta_i = 2 pi i / nodes within 2 nodes of
    the end arcs where chord < sqrt(sigma); a full slice when they meet."""
    if sigma < 4.0:
        k = int(np.ceil(np.arcsin(np.sqrt(sigma) / 2.0) * nodes / np.pi)) + 2
        if 2 * k < nodes:
            return np.r_[0:k, nodes - k:nodes]
    return slice(None)


class CSigmaTable:
    """Not-a-knot cubic spline of log c_sigma in log sigma, on uniform knots
    from log sigma_min to log 16, 16 per octave.

    With knot step h and divided differences d_i, the knot slopes s_i
    solve one linear system (de Boor, A Practical Guide to Splines, 1978):
    s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i) inside, and the
    not-a-knot ends s_0 + 2 s_1 = (5 d_0 + d_1)/2 and
    2 s_{n-2} + s_{n-1} = (d_{n-2} + 5 d_{n-1})/2.  A point's interval is
    found by arithmetic on the uniform knots, and below the first knot the
    first cubic extrapolates.

    Above sigma = 16 the directional bump covers the whole circle and
    c_sigma = (2 pi)^{-1/2} exactly.
    """

    FLAT = (2.0 * np.pi) ** -0.5

    def __init__(self, sigma_min: float):
        self.sigma_min = min(float(sigma_min), 1.0) / 2.0
        lo, hi = np.log(self.sigma_min), np.log(16.0)
        count = int(np.ceil(16.0 * (hi - lo) / np.log(2.0))) + 1
        logs = np.linspace(lo, hi, count)
        logc = np.array([np.log(c_sigma(float(np.exp(s)))) for s in logs])
        h = logs[1] - logs[0]
        d = np.diff(logc) / h
        # end rows halved: unit off-diagonals, and elimination's pivots 1/2, 2, 3.5, ... need no exchange
        rhs = np.r_[(5.0 * d[0] + d[1]) / 4.0, 3.0 * (d[:-1] + d[1:]), (d[-2] + 5.0 * d[-1]) / 4.0]
        piv = np.r_[0.5, np.full(count - 2, 4.0), 0.5]
        for i in range(1, count):
            piv[i], rhs[i] = piv[i] - 1.0 / piv[i - 1], rhs[i] - rhs[i - 1] / piv[i - 1]
        slopes = rhs / piv
        for i in range(count - 2, -1, -1):
            slopes[i] -= slopes[i + 1] / piv[i]
        t = (slopes[:-1] + slopes[1:] - 2.0 * d) / h
        # the cubic on [logs_i, logs_{i+1}] in u = log sigma - logs_i, highest power first
        self._cubics = (t / h, (d - slopes[:-1]) / h - t, slopes[:-1], logc[:-1])
        self._knots, self._h = logs, h

    def __call__(self, sigma) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        out = np.full(sigma.shape, self.FLAT)
        low = sigma < 16.0
        if low.any():
            x = np.log(sigma[low])
            knots = self._knots
            i = np.clip(((x - knots[0]) / self._h).astype(np.intp), 0, knots.size - 2)
            u = x - knots[i]
            c3, c2, c1, c0 = (c[i] for c in self._cubics)
            out[low] = np.exp(((c3 * u + c2) * u + c1) * u + c0)
        return out


class AngularCalderonProfile:
    """Radial window Psi(t) = Theta(t)/sqrt(C), Theta = u(t/2)(1 - u(t)).

    Theta is supported in [1/2, 2]; C = int_0^inf Theta(s)^2 ds/s makes
    int_0^inf Psi(sigma zeta)^2 dsigma/sigma = 1 for every zeta != 0
    (the integral is scale invariant, so C is a single number).  C is the
    adaptive-quadrature value of int_{log 1/2}^{log 2} Theta(e^s)^2 ds to
    1e-13; the trapezoid rule gives the same float from 513 nodes on,
    because Theta(e^s)^2 vanishes with all its derivatives at both ends.
    """

    constant = 0.5663741568045347

    def theta(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return bump(t / 2.0) * (1.0 - bump(t))

    def __call__(self, t) -> np.ndarray:
        return self.theta(t) / np.sqrt(self.constant)


@dataclass
class PhiGeometry:
    """Everything needed to evaluate phi_omega at arbitrary points."""

    psi: AngularCalderonProfile
    ctable: CSigmaTable

    def phi_values(self, points, omega) -> np.ndarray:
        """phi_omega at points of shape (..., 2); hard zeros off support."""
        pts = np.asarray(points, dtype=float)
        idx, vals = self._phi(_Polar(pts.reshape(-1, 2)), omega)
        out = np.zeros(pts.shape[:-1])
        out.reshape(-1)[idx] = vals
        return out

    def _phi(self, polar: _Polar, omega):
        """(ascending indices of polar's points where phi_omega != 0, those values)."""
        omega = np.asarray(omega, dtype=float)
        d = np.hypot(polar.unit[:, 0] - omega[0], polar.unit[:, 1] - omega[1])
        lo = np.maximum(polar.lo, d * d)
        act = lo < polar.hi
        vals = self._windows(polar.rho[act], d[act], lo[act], polar.hi[act])
        hit = vals != 0.0
        return polar.cand[act][hit], vals[hit]

    def _windows(self, rho, d, lo, hi) -> np.ndarray:
        """Trapezoid rule in log tau over [lo, hi] with _N_TAU nodes per point.

        The points run in blocks of _BLOCK, so every temporary stays within
        256 KB and is reused from memory the allocator already holds, where
        one (points x nodes) array would fault in fresh pages on each call.
        Each row is evaluated and summed on its own, so the block size
        changes no bit of the result.
        """
        n = _N_TAU
        t = np.linspace(0.0, 1.0, n)
        wt = np.full(n, 1.0)
        wt[0] = wt[-1] = 0.5
        out = np.empty(len(rho))
        for start in range(0, len(rho), _BLOCK):
            sl = slice(start, start + _BLOCK)
            ls, lh = np.log(lo[sl]), np.log(hi[sl])
            s = ls[:, None] + (lh - ls)[:, None] * t
            tau = np.exp(s)
            integrand = (
                self.psi(tau * rho[sl, None])
                * self.ctable(tau)
                * bump(d[sl, None] / np.sqrt(tau))
            )
            out[sl] = (integrand * wt).sum(axis=1) * (lh - ls) / (n - 1)
        return out


class _Polar:
    """The direction-free part of phi_omega at a fixed set of points (n, 2):
    rho, the indices of the rho > 1/8 candidates, their unit vectors and
    the ends 0.5/rho and min(2/rho, 4) of the scale interval, which no
    omega changes."""

    def __init__(self, pts: np.ndarray):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        self.cand = np.flatnonzero(rho > 0.125)
        self.rho = rho[self.cand]
        self.unit = pts[self.cand] / self.rho[:, None]
        self.lo = 0.5 / self.rho
        self.hi = np.minimum(2.0 / self.rho, 4.0)


class DirectionSet:
    """Equispaced directions on the circle with uniform quadrature weights."""

    def __init__(self, M: int):
        self.M = _integer("direction count M", M, 4)
        ang = 2.0 * np.pi * np.arange(M) / M
        self.omegas = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        self.weights = np.full(M, 2.0 * np.pi / M)
        for a in (self.omegas, self.weights):  # read by every norm on the frame: read-only
            a.flags.writeable = False


def default_direction_count(spec: GridSpec) -> int:
    # neighboring directions closer than the narrowest sector aperture
    return 8 * int(np.ceil(np.sqrt(spec.xi_max)))


def _directions(spec: GridSpec, M_omega: int | None) -> DirectionSet:
    """The frame's directions: M_omega, or the default count when it is None.  A count above
    the grid's N^n lattice points is refused before anything is allocated: at N = 16 and
    L = 1e-100 the default count has 52 digits."""
    M = _integer("direction count M", default_direction_count(spec) if M_omega is None else M_omega, 4)
    if M > spec.N**spec.n:
        raise ParameterError(f"direction count M={M} exceeds the grid's N^n = {spec.N**spec.n} "
                             "lattice points")
    return DirectionSet(M)


# the 7 symmetries of the square lattice other than the identity, as
# signed permutation matrices acting on frequency vectors
_LATTICE_SYMMETRIES = tuple(
    np.array(g)
    for g in (
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, -1), (-1, 0)),
    )
)


def _mirror_source(l: int, M: int):
    """(l0, g) with l0 < l and g omega_l0 = omega_l for the M equispaced
    directions, or None when no earlier direction maps onto l.

    g turns angle theta into det(g) theta + b pi/2, with b pi/2 the angle
    of g e1; in steps of 2 pi / M that is l = det(g) l0 + b M/4 (mod M),
    a direction of the set only when b M/4 is an integer.
    """
    for g in _LATTICE_SYMMETRIES:
        det = int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        b = ((1, 0), (0, 1), (-1, 0), (0, -1)).index((g[0, 0], g[1, 0]))
        if (b * M) % 4:
            continue
        l0 = det * (l - b * M // 4) % M
        if l0 < l:
            return l0, g
    return None


class ParabolicFrame:
    """Directional frame: cutoffs phi_{omega_l} (stored sparsely on the
    lattice), the reproducing multiplier m and the low cutoff q.

    The build also sums coverage = sum_l w_l phi_l, which m inverts, and
    energy = sum_l w_l phi_l^2, from which every p = 2 quantity is read.

    Direction l is copied from an earlier direction l0 when a lattice
    symmetry g has g omega_l0 = omega_l: the point with integer frequency
    index k takes l0's value at g^-1 k.  Points on the Nyquist lines are
    evaluated directly instead, as is every direction that no earlier
    direction maps onto.  Supports equal those of direct evaluation.
    """

    def __init__(self, spec: GridSpec, M_omega: int | None = None):
        self.spec = spec
        self.directions = _directions(spec, M_omega)
        self.geometry = PhiGeometry(AngularCalderonProfile(), CSigmaTable(0.5 / spec.xi_max))
        N, half = spec.N, spec.N // 2
        pts = lattice(spec).points()
        nyquist = np.union1d(half * N + np.arange(N), np.arange(N) * N + half)
        polar, edge_polar = _Polar(pts), _Polar(pts[nyquist])
        coverage = np.zeros(len(pts))
        energy = np.zeros(len(pts))
        self._sparse = []
        self._lines = []
        w = self.directions.weights[0]
        for l, omega in enumerate(self.directions.omegas):
            mirror = _mirror_source(l, self.directions.M)
            if mirror is None:
                idx, vals = self.geometry._phi(polar, omega)
            else:
                l0, g = mirror
                idx0, vals0 = self._sparse[l0]
                r, c = np.divmod(idx0, N)
                keep = (r != half) & (c != half)
                r, c = r[keep], c[keep]
                mapped = (g[0, 0] * r + g[0, 1] * c) % N * N + (g[1, 0] * r + g[1, 1] * c) % N
                hit, edge = self.geometry._phi(edge_polar, omega)
                idx = np.concatenate([mapped, nyquist[hit]])
                order = np.argsort(idx)
                idx = idx[order]
                vals = np.concatenate([vals0[keep], edge])[order]
            self._sparse.append((idx, vals))
            self._lines.append(_touched_lines(idx, N))
            coverage[idx] += w * vals
            energy[idx] += w * vals**2
        self.coverage = coverage.reshape(spec.shape)
        self.energy = energy.reshape(spec.shape)
        self.m = build_reproducing_m(self)
        self.q_values = low_cutoff(lattice(spec).mags)
        # shared by every norm, apply and certificate on the frame: read-only
        for a in (*(a for pair in self._sparse for a in pair), *(lines for _, lines in self._lines),
                  coverage, energy, self.coverage, self.energy, self.m.values, self.q_values):
            a.flags.writeable = False

    @property
    def n_directions(self) -> int:
        return self.directions.M

    def multiplier(self, l: int) -> SpectralMultiplier:
        idx, vals = self._sparse[l]
        full = np.zeros(self.spec.N**self.spec.n)
        full[idx] = vals
        return SpectralMultiplier(self.spec, full.reshape(self.spec.shape))

    def sparse(self, l: int):
        """(flat lattice indices, phi values) for direction l."""
        return self._sparse[l]

    def touched_lines(self, l: int):
        """(axis, sorted indices along that axis) of the lattice lines that
        direction l's support meets, on the axis with fewer such lines."""
        return self._lines[l]

    def parts(self, spectrum: np.ndarray, directions, work):
        """Yield (l, phi_l(D) f on the x-grid, spare) for each l in directions,
        in that order, with spectrum = forward_transform(f); a direction whose
        coefficients are all exactly zero is silent and not yielded.

        The coefficients, times L^-n, fill the lines the sector touches
        (touched_lines); grid._line_inverse's first pass runs on those lines
        only.  On columns the passes run on the transpose, whose transposed
        view is yielded.  work is two complex scratch grids; a yielded array
        is overwritten by the next step, and spare = work[1] is free until then.
        """
        N, scale = self.spec.N, self.spec.L**-self.spec.n
        flat = spectrum.ravel()
        grid, spare = work
        slot = np.empty(N, dtype=np.intp)
        for l in directions:
            idx, vals = self._sparse[l]
            coeffs = vals * flat[idx]
            if not coeffs.any():
                continue
            coeffs *= scale
            axis, lines = self._lines[l]
            line, pos = np.divmod(idx, N)
            if axis == 1:
                line, pos = pos, line
            slot[lines] = np.arange(lines.size)
            part = spare[: lines.size]
            part.fill(0.0)
            part[slot[line], pos] = coeffs
            g = _line_inverse(part, lines, grid)
            yield l, g.T if axis == 1 else g, spare


def _touched_lines(idx: np.ndarray, N: int):
    rows, cols = np.divmod(idx, N)
    rows, cols = np.unique(rows), np.unique(cols)
    return (0, rows) if rows.size <= cols.size else (1, cols)


def build_reproducing_m(frame: ParabolicFrame) -> SpectralMultiplier:
    """Exact lattice inverse of the direction-quadrature sum on |zeta| >= 1/2."""
    spec = frame.spec
    high = lattice(spec).mags >= 0.5
    cov = frame.coverage
    if high.any() and float(cov[high].min()) < 1e-10:
        raise ConstructionError(
            "insufficient directions: frame coverage vanishes at some |zeta| >= 1/2"
        )
    vals = np.zeros(spec.shape)
    vals[high] = 1.0 / cov[high]
    return SpectralMultiplier(spec, vals)


def build_phi_omega(omega, spec: GridSpec, geometry: PhiGeometry) -> SpectralMultiplier:
    omega = np.asarray(omega, dtype=float)
    if abs(np.hypot(omega[0], omega[1]) - 1.0) > 1e-12:
        raise ParameterError("omega must be a unit vector")
    vals = geometry.phi_values(lattice(spec).points(), omega)
    return SpectralMultiplier(spec, vals.reshape(spec.shape))


def frame_analyze(f: GridField, frame: ParabolicFrame) -> list:
    """[phi_{omega_l}(D) f for every frame direction l], from one forward
    transform and the line-pruned inverse passes of frame.parts.  A silent
    direction, which parts does not yield, gets its own grid of exact zeros."""
    _check_specs(f.spec, frame.spec)
    spec, M = frame.spec, frame.n_directions
    work = np.empty((2,) + spec.shape, dtype=complex)
    out = [None] * M
    for l, g, _ in frame.parts(forward_transform(f), range(M), work):
        out[l] = GridField(spec, g.copy())
    return [GridField(spec, np.zeros(spec.shape)) if g is None else g for g in out]


def frame_synthesize(collection, frame: ParabolicFrame) -> GridField:
    """Sum_l w_l m(D) g_l — inverts frame_analyze on |zeta| >= 1/2 spectra.

    By linearity this is m(D) applied to Sum_l w_l g_l, so the weighted
    sum is taken in x and one transform pair runs."""
    if len(collection) != frame.n_directions:
        raise ParameterError("collection size does not match frame directions")
    acc = np.zeros(frame.spec.shape, dtype=complex)
    for w, g in zip(frame.directions.weights, collection):
        _check_specs(g.spec, frame.spec)
        acc += w * g.samples
    return apply_multiplier(GridField(frame.spec, acc), frame.m)


_FD_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _fd_derivative(fun, pts, a1, a2, h1, h2) -> np.ndarray:
    """Centered finite-difference d^{a1}_1 d^{a2}_2 fun at pts (..., 2);
    the result has the shape of fun's values."""
    out = 0.0
    for o1, c1 in _FD_STENCILS[a1]:
        for o2, c2 in _FD_STENCILS[a2]:
            shifted = pts.copy()
            shifted[..., 0] += o1 * h1
            shifted[..., 1] += o2 * h2
            out += c1 * c2 * fun(shifted)
    return out / (h1**a1 * h2**a2)


def _derivative_table(fun, samples, alpha_max: int, measure) -> dict:
    """{(a1, a2): max(0, measure(pts, a1, a2, d))} over the samples (pts, h1, h2)
    for |alpha| <= alpha_max, with d = _fd_derivative(fun, pts, a1, a2, h1, h2)."""
    if _integer("alpha_max", alpha_max, 0) > 3:
        raise ParameterError(f"alpha_max={alpha_max} must lie in 0..3")
    return {
        (a1, a2): max([0.0] + [measure(pts, a1, a2, _fd_derivative(fun, pts, a1, a2, h1, h2))
                               for pts, h1, h2 in samples])
        for a1 in range(alpha_max + 1)
        for a2 in range(alpha_max + 1 - a1)
    }


def anisotropic_bound_check(frame: ParabolicFrame, alpha_max: int = 2) -> dict:
    """Sampled suprema of |xi^alpha d^alpha (<xi>^{-1/4} phi_{e1})(xi)|
    over 20 radii and 15 angles per radius.

    Derivatives use centered differences of the analytic construction
    at off-lattice points, with steps matched to the parabolic scaling
    (radial scale ~ rho, angular scale ~ sqrt(rho)).
    """
    geom = frame.geometry
    e1 = np.array([1.0, 0.0])

    def fun(pts):
        w = (1.0 + (pts**2).sum(axis=-1)) ** -0.125
        return w * geom.phi_values(pts, e1)

    def measure(pts, a1, a2, deriv):
        weight = np.abs(pts[:, 0]) ** a1 * np.abs(pts[:, 1]) ** a2
        return float((weight * np.abs(deriv)).max())

    samples = []
    for rho in np.geomspace(0.25, frame.spec.xi_max, 20):
        span = min(np.pi, 2.5 / np.sqrt(rho))
        theta = np.linspace(-span, span, 15)
        pts = rho * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        samples.append((pts, 1e-3 * max(1.0, rho), 1e-3 * max(1.0, np.sqrt(rho))))
    return _derivative_table(fun, samples, alpha_max, measure)
