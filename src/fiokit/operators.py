"""Application of rough pseudodifferential operators and empirical
operator-norm probing.

One seam, _pair, decides the operator's kind once: a dense symbol (the
literal frequency sum, quadratic in the lattice size, for small grids),
a separable one (a short sum of band projections times pointwise
factors, for large grids) or a SpectralMultiplier.  It also composes:
_Composed(a, m), a(x,D) m(D), is a's own pair with the multiplier m folded
in, at no transform.  Its pair maps spectrum to spectrum: applying and
adjoints are F^{-1} pair F, and the p = 2 certificate iterates on the pair
of T Phi^{-1} with no transform of its own.  A
separable symbol runs band k's product a_k chi_k(D)f on the smallest grid
that holds it, M_k points per axis with M_k > 2 (A_k + C_k): C_k bounds
chi_k's FFT indices, A_k a_k's up to 1e-12 of its l1 spectral mass
(SeparableSymbol._grids).  On that grid the product aliases nothing onto the
band, so it differs from the N-grid product only by the share left out; a
band whose product wraps on N (A_k + C_k >= N/2) stays there, wrapped.  The bands
of one grid run as one band sum on the box of the spectrum the grid holds,
with a_k read at every (N/M)-th sample, and one transform there, so a
certificate step runs Sum over grids of 2K_M + 2 transforms, K_M bands on
grid M, 2 for a dense symbol and none for a multiplier, and builds no
GridField.  At N = 256, L = 2 pi six of the r = 2, delta = 1/2 chirp's ten
bands run on 16 to 128 points: 10 transforms at 256^2 and 20 smaller ones
where 22 at 256^2 ran.  The separable core allocates no grid per
band, as measured to pay: grid._band_sum's one scratch grid per call takes
every band transform.  The dense cores evaluate one x-slice and allocate one
product per lattice frequency, as measured free, and the apply forms each
row's spectrum-phase products in one array operation.  Each sum is scaled,
and in an adjoint conjugated, once.  A densified separable symbol keeps
its nonzero (band, weight) pairs once per distinct |eta|: on a band's
plateau the slice is that band's samples, read and never copied,
elsewhere the weighted sum of two bands.
The comment at MAX_DENSE_N gives the time per eta and the cap it sets.
Probing reports norm ratios over a test family; at p = 2 it also records
sqrt(2) times a power-iteration estimate of the L^2 norm of a conjugated
operator.  That number is what the probe ratios are compared against,
but it is not a rigorous bound: power iteration estimates the norm from
below and may stop at its iteration cap before it converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    ParameterError,
    ResolutionError,
    _integer,
    _rng,
)
from .families import FamilyMember
from .grid import (
    GridField,
    GridSpec,
    SpectralMultiplier,
    _band_sum,
    _check_p,
    _forward_in_place,
    _inverse_in_place,
    _quiet,
    _sq_sum,
    forward_transform,
    inverse_transform,
    lattice,
)
from .norms import ExponentBudget, hpfio_norm
from .parabolic import ParabolicFrame
from .symbols import DenseSymbol, SeparableSymbol


# the dense path loops over the lattice frequencies in Python, with grid-sized
# work per eta: on a 2-vCPU x86-64 VM a fresh densified chirp's first apply
# takes 0.10-0.13 s at N = 64, L = 8 pi (25-30 us per eta) and 1.3-1.7 s at
# N = 128, L = 2 pi (80-100 us per eta); a repeated apply of the same symbol,
# its band weights kept, takes 0.09-0.11 s and 1.26-1.6 s
MAX_DENSE_N = 128


def _check_dense(spec: GridSpec):
    if spec.N > MAX_DENSE_N:
        raise ResolutionError(f"dense application restricted to N <= {MAX_DENSE_N}")


def _lattice_tables(spec: GridSpec):
    """(etas, E): etas[i1, i2] = eta_i = (xi_i1, xi_i2), and E = e^{ix.xi} with x along axis 0,
    so E[:, i1, None] broadcasts e^{ix1.xi_i1} along x1 and E.T[i2] e^{ix2.xi_i2} along x2."""
    etas = lattice(spec).points().reshape(spec.shape + (spec.n,))
    return etas, np.exp(1j * np.outer(spec.x_axis(), lattice(spec).axis))


def _dense_synth(a: DenseSymbol, spectrum: np.ndarray) -> np.ndarray:
    """Samples of L^{-n} sum_eta a(x,eta) s(eta) e^{ix.eta}; s(eta) = 0 evaluates no slice.
    Each row sums a(., eta) s(eta) e^{ix2.eta2} in one scratch grid, then applies e^{ix1.eta1}."""
    etas, E = _lattice_tables(a.spec)
    out = np.zeros(a.spec.shape, dtype=complex)
    # on 2 vCPUs a sum() per row in place of acc took a warm N = 64 apply 0.066 -> 0.075 s
    acc = np.empty_like(out)
    for i1 in np.flatnonzero(spectrum.any(axis=1)):
        i2s = np.flatnonzero(spectrum[i1])
        acc.fill(0.0)
        for i2, se2 in zip(i2s, spectrum[i1, i2s, None] * E.T[i2s]):
            acc += a.eval(etas[i1, i2]) * se2
        acc *= E[:, i1, None]
        out += acc
    out *= a.spec.L ** -a.spec.n
    return out


def _dense_analyze(a: DenseSymbol, samples: np.ndarray) -> np.ndarray:
    """Spectrum (T*g)^(eta) = sum_x conj(a(x,eta)) g(x) e^{-ix.eta} dx^n, every eta, as
    conj(sum_x2 e^{ix2.eta2} sum_x1 a(x,eta) h(x)) with h = conj(g) e^{ix1.eta1} once per row."""
    etas, E = _lattice_tables(a.spec)
    spectrum = np.empty(a.spec.shape, dtype=complex)
    g = np.conj(samples)
    for i1 in range(a.spec.N):
        h = g * E[:, i1, None]
        for i2 in range(a.spec.N):
            spectrum[i1, i2] = ((a.eval(etas[i1, i2]) * h).sum(axis=0) * E.T[i2]).sum()
    np.conjugate(spectrum, out=spectrum)
    spectrum *= a.spec.cell_volume
    return spectrum


@_quiet
def _grid_sum(a: SeparableSymbol, part) -> np.ndarray:
    """Sum over a's product grids, largest first, of part(grid, box, stride, bands): the
    spectrum on grid of the bands (k, a_k) that run there, added into box, the index of grid's
    FFT indices [0, M/2) and [N - M/2, N) per axis in a's spectrum (a view of all of it when
    M = N); a_k is read at every stride = N/M-th sample.  The N-grid's part, when there is
    one, comes first and starts the sum itself: a zero grid written and read in its place took
    a 2-vCPU N = 256 certificate step 13.4 -> 14.3 ms (medians of 12 blocks of 10 steps)."""
    N, out = a.spec.N, None
    for grid, ks in a._grids:
        index = np.concatenate((np.arange(grid.N // 2), np.arange(N - grid.N // 2, N)))
        box = np.s_[:, :] if grid.N == N else np.ix_(index, index)
        spectrum = part(grid, box, N // grid.N, [(k, a.bands[k]) for k in ks])
        if grid.N == N:
            out = spectrum
        else:
            out = np.zeros(a.spec.shape, dtype=complex) if out is None else out
            out[box] += spectrum
    return np.zeros(a.spec.shape, dtype=complex) if out is None else out


def _synth(a: SeparableSymbol, spectrum: np.ndarray) -> np.ndarray:
    """Spectrum of Sum_k a_k(x) (chi_k(D) f)(x) from spectrum = forward_transform(f): per
    product grid, one band sum on spectrum's box, scaled by L^{-n} once, and one forward
    transform there."""
    def part(grid, box, stride, bands):
        terms = ((a.chi.values[k][box], a_k.samples[::stride, ::stride]) for k, a_k in bands)
        return _forward_in_place(_band_sum(terms, spectrum[box], a.spec.L ** -a.spec.n), grid)

    return _grid_sum(a, part)


def _analyze(a: SeparableSymbol, spectrum: np.ndarray) -> np.ndarray:
    """Spectrum Sum_k chi_k F(conj(a_k) g) of the adjoint from spectrum = forward_transform(g):
    per product grid, one inverse transform of spectrum's box, then, as chi_k is real,
    conj(Sum_k chi_k F^{-1}(a_k conj(g))): g and the sum are conjugated once, no a_k is, and
    that grid's dx^n scales the sum once."""
    def part(grid, box, stride, bands):
        g = _inverse_in_place(np.array(spectrum[box]), grid)
        terms = ((a_k.samples[::stride, ::stride], a.chi.values[k][box]) for k, a_k in bands)
        out = _band_sum(terms, np.conjugate(g, out=g), grid.cell_volume)
        return np.conjugate(out, out=out)

    return _grid_sum(a, part)


@dataclass(frozen=True)
class _Composed:
    """a(x,D) m(D): a is any operator _pair takes, a _Composed included, and m is a
    SpectralMultiplier.  Its grid is a's; _pair refuses an m on another one."""

    a: object
    m: SpectralMultiplier
    spec = property(lambda self: self.a.spec)


def _pair(a, spec: GridSpec):
    """(synth, analyze) for a on spec, spectrum to spectrum: synth(F f) = F(a(x,D)f) and
    analyze(F g) = F(a(x,D)*g); neither writes into its argument.  A multiplier runs no
    transform, a dense symbol one around its lattice walk.  A _Composed(a, m) is a's own pair
    with m multiplied in before synth and conj(m) into analyze's fresh result, so it adds no
    transform and, for a real m, no array.  Its checks and choice of kind precede any
    transform or evaluation."""
    if a.spec != spec or isinstance(a, _Composed) and a.m.spec != spec:
        raise DimensionError("symbol and field grids differ")
    if isinstance(a, _Composed):
        (synth, analyze), m, m_conj = _pair(a.a, spec), a.m.values, a.m.values.conj()
        return (lambda s: synth(m * s)), (lambda u: np.multiply(w := analyze(u), m_conj, out=w))
    if isinstance(a, SpectralMultiplier):
        return (lambda s: a.values * s), (lambda u: np.conj(a.values) * u)
    if isinstance(a, SeparableSymbol):
        return partial(_synth, a), partial(_analyze, a)
    _check_dense(spec)
    return (lambda s: _forward_in_place(_dense_synth(a, s), spec),
            lambda u: _dense_analyze(a, _inverse_in_place(np.array(u), spec)))


def apply_symbol(a, f: GridField) -> GridField:
    """a(x,D)f for a SeparableSymbol, a DenseSymbol or a SpectralMultiplier a: Sum_k a_k(x)
    (chi_k(D) f)(x) for a separable symbol, and for a dense one (N <= MAX_DENSE_N) the direct
    frequency sum L^{-n} sum_eta a(x,eta) f^(eta) e^{ix.eta}."""
    synth, _ = _pair(a, f.spec)
    return inverse_transform(synth(forward_transform(f)), f.spec)


def _adjoint(a, g: GridField) -> GridField:
    """a(x,D)*g on the grid inner product, for every kind apply_symbol takes: Sum_k chi_k(D)
    (conj(a_k) g) for a separable symbol, and for a dense one the exact adjoint
    (T*g)^(eta) = sum_x conj(a(x,eta)) g(x) e^{-ix.eta} dx^n."""
    _, analyze = _pair(a, g.spec)
    return inverse_transform(analyze(forward_transform(g)), g.spec)


# the kind-specific spellings that perfbench reaches by name
apply_dense = apply_separable = apply_symbol
apply_dense_adjoint = apply_separable_adjoint = _adjoint


# ---------------------------------------------------------------------------
# Band-support verification
# ---------------------------------------------------------------------------


def verify_band_support(a_k: GridField, f_k: GridField, k: int, gamma: float = 1.0):
    """Check that F(a_k f_k) vanishes outside [2^{k-3}, 2^{k+1}].

    Precondition (reported, not asserted): F(a_k) lives in the annulus
    2^{(k-2)/2} / 4 <= |xi| <= 2^{k gamma - 3}.  Returns (ok, report).
    """
    if a_k.spec != f_k.spec:
        raise DimensionError("band factors on different grids")
    mags = lattice(a_k.spec).mags
    ahat = np.abs(forward_transform(a_k))
    apeak = float(ahat.max())
    pre_out = (mags < 0.25 * 2.0 ** ((k - 2) / 2.0)) | (mags > 2.0 ** (k * gamma - 3.0))
    pre_leak = float(ahat[pre_out].max() / apeak) if (apeak > 0 and pre_out.any()) else 0.0
    precondition_ok = pre_leak <= 1e-12
    product = GridField(a_k.spec, a_k.samples * f_k.samples)
    phat = np.abs(forward_transform(product))
    peak = float(phat.max())
    outside = (mags < 2.0 ** (k - 3)) | (mags > 2.0 ** (k + 1))
    leak = float(phat[outside].max() / peak) if (peak > 0 and outside.any()) else 0.0
    # ok reflects the product-support identity only; a violated
    # precondition is reported, not treated as a failure by itself
    ok = leak <= 1e-12
    report = {
        "k": k,
        "precondition_ok": precondition_ok,
        "precondition_leak": pre_leak,
        "leak": leak,
        "peak": peak,
        "window": (2.0 ** (k - 3), 2.0 ** (k + 1)),
    }
    return ok, report


# ---------------------------------------------------------------------------
# Operator-norm probing
# ---------------------------------------------------------------------------


def _start(spec: GridSpec, seed: int) -> np.ndarray:
    """Seeded complex Gaussian samples of unit L^2 norm."""
    rng = _rng(seed)
    v = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return v / (np.sqrt(_sq_sum(v)) * spec.dx ** (spec.n / 2))


def _power(step, v: np.ndarray, scale: float, iters: int = 200) -> float:
    """Power iteration from the unit vector v, normed as scale * ||.||_2: the square root
    of the step's norm once it changes by less than 1e-8 relative, or after iters steps.
    A step whose norm is not finite is refused, not divided into a zero iterate."""
    sigma = 0.0
    for _ in range(iters):
        w = step(v)
        nw = np.sqrt(_sq_sum(w)) * scale
        if not np.isfinite(nw):
            raise InvalidInputError("power iteration: a step has a non-finite norm")
        if nw < 1e-300:
            return 0.0
        new_sigma = np.sqrt(nw)
        v = w / nw
        if sigma > 0 and abs(new_sigma - sigma) < 1e-8 * sigma:
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def power_iteration(
    apply_fn, adjoint_fn, spec: GridSpec, iters: int = 200, seed: int = 0
) -> float:
    """Spectral norm estimate via power iteration on T*T (fixed seed); it
    stops once the estimate changes by less than 1e-8 relative, or after iters steps."""
    _integer("iters", iters, 1)
    return _power(lambda x: adjoint_fn(apply_fn(GridField(spec, x))).samples,
                  _start(spec, seed), spec.dx ** (spec.n / 2), iters)


def _frame_weight_multipliers(frame: ParabolicFrame):
    """Phi = sqrt(q^2 + frame.energy), with frame.energy = sum_l w_l phi_l^2, and its
    reciprocal.  Phi is positive on the whole lattice: q = 1 on |zeta| <= 2, and on
    |zeta| >= 1/2 the frame's coverage is at least 1e-10 (build_reproducing_m), so by
    Cauchy-Schwarz energy >= coverage^2 / 2 pi > 0 there."""
    phi = np.sqrt(frame.q_values**2 + frame.energy)
    return SpectralMultiplier(frame.spec, phi), SpectralMultiplier(frame.spec, 1.0 / phi)


def _conjugated_step(a, frame: ParabolicFrame):
    """v^ -> the spectrum of B*B v, B = Phi(D) T Phi(D)^{-1}: the pair of T Phi^{-1}
    (_Composed) with Phi^2 multiplied in between.  The step runs no transform of its own
    and builds no GridField."""
    phi, phi_inv = _frame_weight_multipliers(frame)
    (synth, analyze), phi_sq = _pair(_Composed(a, phi_inv), frame.spec), phi.values**2
    return lambda v_hat: analyze(np.multiply(u := synth(v_hat), phi_sq, out=u))


def certified_l2_bound(a, frame: ParabolicFrame, seed: int = 0) -> float:
    """sqrt(2) times a power-iteration estimate of ||Phi(D) T Phi(D)^{-1}||_2.

    With |||g|||^2 = ||q(D)g||_2^2 + sum_l w_l ||phi_l(D)g||_2^2, the
    reported norm N1 + N2 satisfies ||| . ||| <= N1 + N2 <= sqrt(2) ||| . |||,
    and ||| . ||| = ||Phi(D) . ||_2 by Parseval, with Phi^2 = q^2 +
    frame.energy (energy = sum_l w_l phi_l^2).  Hence every probe ratio
    is at most sqrt(2) times the L^2 spectral norm of Phi(D) T Phi(D)^{-1}.

    Power iteration runs on B*B = Phi^{-1} T* Phi^2 T Phi^{-1}, with
    B = Phi T Phi^{-1}, on spectra (_conjugated_step): it starts from F of
    power_iteration's seeded start and norms w by Parseval, L^{-n/2} ||w^||_2.
    T Phi^{-1} and its adjoint come from _pair for every kind, spectrum to
    spectrum, as the pair of _Composed(T, Phi^{-1}).

    The returned number is not that bound itself.  Power iteration gives a
    lower estimate of the spectral norm, and it returns after 200
    applies whether or not it has converged, without saying which; so
    the result may sit below the true sqrt(2) ||Phi T Phi^{-1}||_2.
    """
    step = _conjugated_step(a, frame)
    spec = frame.spec
    v_hat = forward_transform(GridField(spec, _start(spec, seed)))
    return float(np.sqrt(2.0) * _power(step, v_hat, spec.L ** (-spec.n / 2)))


@dataclass
class BoundednessReport:
    spec: GridSpec
    p: float
    s_in: float
    s_out: float
    rows: list = dc_field(default_factory=list)
    budget: ExponentBudget | None = None
    spectral_bound: float | None = None

    def add(self, member, in_norm, out_norm):
        self.rows.append(
            {
                "p": self.p,
                "s_in": self.s_in,
                "s_out": self.s_out,
                "k": member.band,
                "member": member.name,
                "in_norm": in_norm,
                "out_norm": out_norm,
                "ratio": out_norm / in_norm,
            }
        )

    @property
    def sup_ratio(self) -> float:
        return max(row["ratio"] for row in self.rows)

    def band_profile(self) -> dict:
        prof = {}
        for row in self.rows:
            prof[row["k"]] = max(prof.get(row["k"], 0.0), row["ratio"])
        return prof

    def trend_slope(self) -> float:
        """Least-squares slope of log2(max band ratio) against band index."""
        prof = self.band_profile()
        if len(prof) < 2:
            return 0.0
        ks = np.array(sorted(prof))
        for k in ks:
            if prof[k] <= 0.0:
                raise DegenerateInputError(f"band {k}'s largest ratio is 0, which has no log2")
        ys = np.log2([prof[k] for k in ks])
        dk = ks - ks.mean()
        return float((dk * (ys - ys.mean())).sum() / (dk * dk).sum())


def operator_norm_probe(
    a,
    s_in: float,
    s_out: float,
    p: float,
    frame: ParabolicFrame,
    family: list[FamilyMember],
    budget: ExponentBudget | None = None,
) -> BoundednessReport:
    """Ratios of directional norms over the family; at p = 2, s = 0 the
    power-iteration estimate of certified_l2_bound is recorded alongside.  The
    operator's pair, and with it its grid check, is taken before any member is
    normed."""
    _check_p(p)
    if len(family) == 0:
        raise ParameterError("empty test family")
    synth, _ = _pair(a, frame.spec)
    report = BoundednessReport(frame.spec, p, s_in, s_out, budget=budget)
    for member in family:
        in_norm = hpfio_norm(member.field, s_in, p, frame)
        if in_norm < 1e-14:
            raise DegenerateInputError(f"member {member.name} has vanishing input norm")
        out = inverse_transform(synth(forward_transform(member.field)), frame.spec)
        out_norm = hpfio_norm(out, s_out, p, frame)
        report.add(member, in_norm, out_norm)
    if p == 2.0 and s_in == 0.0 and s_out == 0.0:
        report.spectral_bound = certified_l2_bound(a, frame)
    return report
