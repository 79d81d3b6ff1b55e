"""Rough symbols a(x, eta): representation, seminorm estimation,
symbol smoothing, paraproducts, and the per-band Fourier-mode
(separation-of-variables) decomposition.

Dense symbols are kept lazy — a callable producing the x-grid slice
a(., eta) for any requested frequency eta — so the full N^n x N^n
table is never materialized.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .dyadic import LittlewoodPaleyFamily, _family
from .errors import DimensionError, InvalidInputError, ParameterError, ResolutionError
from .errors import _read, _rng
from .grid import GridField, GridSpec, SpectralMultiplier, apply_multiplier, lattice, read_fiof
from .grid import _band_sum, _check_specs, _forward_in_place, _inverse_in_place, _quiet
from .grid import _GRID_SCHEMA, forward_transform
from .norms import zygmund_norm
from .parabolic import _derivative_table


def _check_class(r, delta):
    if not r > 0:
        raise ParameterError(f"r={r} must be positive")
    if not (0.0 <= delta <= 1.0):
        raise ParameterError(f"delta={delta} must lie in [0, 1]")


@dataclass
class DenseSymbol:
    """Symbol a(x, eta) with lazy x-slices and declared class (r, m, delta)."""

    spec: GridSpec
    field: callable
    r: float = 1.0
    m: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        _check_class(self.r, self.delta)
        if not np.isfinite(self.m):
            raise ParameterError(f"order m={self.m} must be finite")

    def eval(self, eta) -> np.ndarray:
        """x-grid slice a(., eta), always a full complex array.  The slice may be
        an array the symbol keeps (preset_multiplication's b.samples, a densified
        symbol's band on that band's plateau), so a caller must not write into it."""
        eta = np.asarray(eta, dtype=float)
        out = np.asarray(self.field(eta), dtype=complex)
        if out.ndim == 0:
            out = np.full(self.spec.shape, complex(out))
        if out.shape != self.spec.shape:
            raise InvalidInputError("symbol slice shape does not match grid")
        return out


@dataclass(frozen=True)
class SeparableSymbol:
    """a(x, eta) = Sum_k a_k(x) chi_k(eta) against a dyadic band family.  The symbol is frozen
    and `bands` is kept as a read-only copy of the mapping given, since the product-grid plan
    is read from the band samples on first use; for the same reason the symbol makes the
    band sample arrays it is given read-only."""

    spec: GridSpec
    bands: Mapping
    chi: LittlewoodPaleyFamily
    r: float = 1.0
    delta: float = 0.0
    residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bands", MappingProxyType(dict(self.bands)))
        _check_class(self.r, self.delta)
        _check_specs(self.chi.spec, self.spec)
        for k, a_k in self.bands.items():
            if not (0 <= k <= self.chi.J_max):
                raise ParameterError(f"band index {k} outside family range")
            if a_k.spec != self.spec:
                raise DimensionError("band field grid differs from symbol grid")
            a_k.samples.flags.writeable = False

    @cached_property
    def _grids(self) -> tuple:
        """((GridSpec(n, M, L), (k, ...)), ...): the bands whose product a_k chi_k(D)f runs on
        M points per axis (operators._synth, operators._analyze), largest M first.  Computed on
        first use, from the band samples alone, so a symbol read from its files gets the plan
        of the one written."""
        plan = {k: _product_grid(a_k, self.chi.values[k]) for k, a_k in self.bands.items()}
        return tuple((GridSpec(self.spec.n, M, self.spec.L), tuple(k for k in plan if plan[k] == M))
                     for M in sorted(set(plan.values()), reverse=True))

    def densify(self) -> DenseSymbol:
        """The same symbol as a DenseSymbol, whose slice at eta is the band sum
        chi.radial_sum of the a_k: a_k.samples itself on band k's plateau."""
        fn = self.chi.radial_sum({k: a_k.samples for k, a_k in self.bands.items()})
        return DenseSymbol(self.spec, fn, r=self.r, m=0.0, delta=self.delta)

    def constants(self) -> dict:
        """Recorded size constants: sup_k of the sup norm and of the
        2^{-kr delta}-weighted Zygmund norm (delta = 1/2 reproduces the
        classical normalization)."""
        sup = 0.0
        zyg = 0.0
        for k, a_k in self.bands.items():
            sup = max(sup, float(np.abs(a_k.samples).max()))
            zyg = max(zyg, 2.0 ** (-k * self.r * self.delta) * zygmund_norm(a_k, self.r, self.chi))
        return {"sup": sup, "weighted_zygmund": zyg}


# the share of a_k^'s l1 mass that a band's product grid may leave out
_GRID_TAIL = 1e-12


@_quiet
def _product_grid(a_k: GridField, chi_k: np.ndarray) -> int:
    """M_k, the smallest power of two >= 16 with M_k > 2 (A_k + C_k), or N when that reaches N.
    C_k is the largest |FFT index| on either axis where chi_k != 0, exact as chi_k's zeros are
    hard; A_k the smallest box half-width outside which a_k^ holds at most 1e-12 of its l1 mass.
    On M_k points a_k chi_k(D)f aliases nothing onto the band: its spectrum fits in the M_k-box
    but for that share.  Only a band with 4 C_k < N, which may leave the N-grid, runs a forward
    transform; a non-finite mass keeps the band on N."""
    N = a_k.spec.N
    index = np.minimum(np.arange(N), N - np.arange(N))
    C = int(index[chi_k.any(axis=0) | chi_k.any(axis=1)].max(initial=0))
    if 4 * C >= N:
        return N
    mass = np.abs(_forward_in_place(np.array(a_k.samples), a_k.spec)).ravel()
    by_radius = np.bincount(np.maximum.outer(index, index).ravel(), mass, N // 2 + 1)
    outside = np.append(np.cumsum(by_radius[:0:-1])[::-1], 0.0)  # outside[h]: radius > h
    total = outside[0] + by_radius[0]
    if not np.isfinite(total):
        return N
    A = int(np.argmax(outside <= _GRID_TAIL * total))
    M = 16
    while M <= 2 * (A + C):
        M *= 2
    return min(M, N)


@dataclass
class SmoothingSplit:
    """Exact split a = sharp + flat with sharp the x-smoothed part."""

    gamma: float
    sharp: DenseSymbol
    flat: DenseSymbol


def smooth_split(a: DenseSymbol, gamma: float, fam: LittlewoodPaleyFamily | None = None) -> SmoothingSplit:
    """Per eta-band k, low-pass a(., eta) in x below scale 2^{gamma k};
    the flat part is the closure a - sharp, so the split is exact.  The cutoff at eta is
    fam.radial_sum of the grids lowpass_profile(2^{-gamma k}|xi|), k <= J_max, built once."""
    if not (a.delta <= gamma <= 1.0):
        raise ParameterError(f"gamma={gamma} must lie in [delta={a.delta}, 1]")
    fam = _family(fam, a.spec)
    cut = fam.radial_sum({k: fam.lowpass_profile(2.0 ** (-gamma * k) * lattice(a.spec).mags)
                          for k in range(fam.J_max + 1)})

    def smoothed(s, eta):
        # Sum_k w_k ifft(h_k fft(s)) = ifft((Sum_k w_k h_k) fft(s)): one pair
        return apply_multiplier(GridField(a.spec, s), SpectralMultiplier(a.spec, cut(eta))).samples

    def flat_fn(eta):
        s = a.eval(eta)
        return s - smoothed(s, eta)

    sharp = DenseSymbol(a.spec, lambda eta: smoothed(a.eval(eta), eta), r=a.r, m=a.m, delta=gamma)
    flat = DenseSymbol(
        a.spec,
        flat_fn,
        r=a.r,
        m=a.m - (gamma - a.delta) * a.r,
        delta=gamma,
    )
    return SmoothingSplit(gamma, sharp, flat)


def _band_eta_samples(fam: LittlewoodPaleyFamily, k: int):
    """Representative eta points inside supp psi_k: 3 radii times 4 angles."""
    eps = fam.eps
    if k == 0:
        radii = np.array([0.0, 0.3, 0.7]) * (1.0 - eps / 2.0)
    else:
        lo, hi = (1.0 + eps) / 2.0, 2.0 - eps
        radii = 2.0 ** (k - 1) * np.linspace(lo, hi, 5)[1:-1]
    angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False) + 0.3
    return [
        np.array([rho * np.cos(t), rho * np.sin(t)]) for rho in radii for t in angles
    ]


def _check_band_resolution(spec: GridSpec, fam: LittlewoodPaleyFamily, k: int) -> bool:
    """True if band k should be sampled; bands entirely beyond the axis
    frequency range (corner-only content) are skipped, under-resolved
    bands inside the range are an error."""
    axis_max = np.pi * spec.N / spec.L
    if k > 0 and 2.0 ** (k - 1) * (1.0 + fam.eps) / 2.0 >= axis_max:
        return False
    axis = np.abs(lattice(spec).axis)
    count = int((fam.band_profile(k, axis) > 0).sum())
    if k > 0 and count < 5:
        raise ResolutionError(f"band {k} has only {count} lattice frequencies per axis")
    return True


def estimate_seminorms(
    a: DenseSymbol, alpha_max: int, fam: LittlewoodPaleyFamily | None = None
) -> dict:
    """Sampled seminorm constants C_alpha of the class C^r_* S^m_{1,delta}.

    For each eta-derivative order alpha (centered finite differences in
    eta), takes the max over sampled (x, eta) of both normalizations:
    the pointwise one |d^alpha a| <eta>^{|alpha|-m} and the x-Zygmund
    one ||d^alpha a(., eta)||_{C^r_*} <eta>^{|alpha|-m-r delta}.
    """
    fam = _family(fam, a.spec)

    def measure(eta, a1, a2, deriv):
        rho = float(np.hypot(eta[0], eta[1]))
        w = (1.0 + rho * rho) ** 0.5
        point = float(np.abs(deriv).max()) * w ** (a1 + a2 - a.m)
        zyg = (
            zygmund_norm(GridField(a.spec, deriv), a.r, fam)
            * w ** (a1 + a2 - a.m - a.r * a.delta)
        )
        return max(point, zyg)

    samples = []
    for k in range(fam.J_max + 1):
        if _check_band_resolution(a.spec, fam, k):
            for eta in _band_eta_samples(fam, k):
                h = 0.02 * (1.0 + float(np.hypot(eta[0], eta[1])))
                samples.append((eta, h, h))
    return _derivative_table(a.eval, samples, alpha_max, measure)


# ---------------------------------------------------------------------------
# Paraproducts
# ---------------------------------------------------------------------------


def _paraproduct(b: GridField, f: GridField, fam, window) -> GridField:
    """Sum_k (psi_k(D) f)(W_k(D) b), W_k = Sum_{j in window(k)} psi_j: the band sum of terms
    (W_k, psi_k(D) f) over F(b) for the k with a non-empty window, scaled by L^{-n} once.
    When no window is non-empty the sum is zero and nothing is transformed."""
    if b.spec != f.spec:
        raise DimensionError("paraproduct operands on different grids")
    fam = _family(fam, b.spec)
    ks = [k for k in range(fam.J_max + 1) if fam.values[window(k)]]
    if not ks:
        return GridField(b.spec, np.zeros(b.spec.shape, dtype=complex))
    spectrum = forward_transform(f)
    terms = ((sum(fam.values[window(k)]), _inverse_in_place(fam.values[k] * spectrum, b.spec))
             for k in ks)
    return GridField(b.spec, _band_sum(terms, forward_transform(b), b.spec.L ** -b.spec.n))


def paraproduct_hh(b: GridField, f: GridField, fam: LittlewoodPaleyFamily | None = None) -> GridField:
    """Comparable-frequency piece: bands with |j - k| <= 5."""
    return _paraproduct(b, f, fam, lambda k: slice(max(0, k - 5), k + 6))


def paraproduct_hl(b: GridField, f: GridField, fam: LittlewoodPaleyFamily | None = None) -> GridField:
    """High-b, low-f piece: j >= k + 6."""
    return _paraproduct(b, f, fam, lambda k: slice(k + 6, None))


def paraproduct_lh(b: GridField, f: GridField, fam: LittlewoodPaleyFamily | None = None) -> GridField:
    """Low-b, high-f remainder: j <= k - 6; completes b*f with the other two."""
    return _paraproduct(b, f, fam, lambda k: slice(0, max(0, k - 5)))


# ---------------------------------------------------------------------------
# Per-band Fourier-mode decomposition
# ---------------------------------------------------------------------------


@dataclass
class FourierModeDecomposition:
    """Coefficients c_{k,beta}(x) of the band symbol a psi_k expanded in
    frequency modes e^{i beta 2^{-k} eta} over the rescaled band cell."""

    spec: GridSpec
    beta_max: int
    subgrid: int
    coeffs: dict


def coifman_meyer_decompose(
    a: DenseSymbol,
    beta_max: int,
    bands=None,
    fam: LittlewoodPaleyFamily | None = None,
) -> FourierModeDecomposition:
    """Fourier modes of the band-k symbol on a uniform P x P grid of zeta in [-1/2, 1/2)^n,
    c_beta = P^-2 Sum_zeta (psi_k a)(., 2^{k+1} pi zeta) e^{-2 pi i beta.zeta},
    summed directly for |beta|_inf <= beta_max.  Memory is (2 beta_max + 1)^2 N^n for
    the kept modes plus 2 (2 beta_max + 1) N^n for one zeta_1 row's sums."""
    if beta_max < 0:
        raise ParameterError("beta_max must be >= 0")
    fam = _family(fam, a.spec)
    P = 32
    while P < 4 * max(beta_max, 1):
        P *= 2
    if bands is None:
        bands = range(fam.J_max + 1)
    zeta = (np.arange(P) - P / 2) / P
    Z1, Z2 = np.meshgrid(zeta, zeta, indexing="ij")
    betas = range(-beta_max, beta_max + 1)
    phase = np.exp(-2j * np.pi * np.outer(betas, zeta)) / P
    coeffs = {}
    for k in bands:
        scale = 2.0 ** (k + 1) * np.pi
        window = fam.band_profile(k, scale * np.hypot(Z1, Z2))
        acc = np.zeros((len(betas), len(betas)) + a.spec.shape, dtype=complex)
        for i1 in np.flatnonzero(window.any(axis=1)):
            inner = np.zeros(acc.shape[1:], dtype=complex)
            for i2 in np.flatnonzero(window[i1]):
                slice_a = a.eval(scale * np.array([zeta[i1], zeta[i2]]))
                inner += (window[i1, i2] * phase[:, i2])[:, None, None] * slice_a
            for j1 in range(len(betas)):
                acc[j1] += phase[j1, i1] * inner
        coeffs[k] = {(b1, b2): acc[j1, j2] for j1, b1 in enumerate(betas)
                     for j2, b2 in enumerate(betas)}
    return FourierModeDecomposition(a.spec, beta_max, P, coeffs)


def to_separable(
    a: DenseSymbol, chi: LittlewoodPaleyFamily | None = None
) -> SeparableSymbol:
    """Band-center sampling a_k(x) = a(x, eta_k*) with eta_k* on the chi_k
    plateau; exact when a is eta-flat within each band (residual reported).
    Each a_k is a copy, as a slice may be an array a keeps."""
    chi = _family(chi, a.spec)
    eps = chi.eps
    bands = {}
    for k in range(chi.J_max + 1):
        if k == 0:
            eta_star = np.zeros(2)
        else:
            eta_star = np.array([2.0 ** (k - 1) * (1.0 + eps / 4.0), 0.0])
        bands[k] = GridField(a.spec, a.eval(eta_star).copy())
    approx = chi.radial_sum({k: a_k.samples for k, a_k in bands.items()})
    # The finite family sums to 1 only up to this radius; beyond it the
    # lattice has no content, so residual sampling stops there.
    cover = 2.0**chi.J_max * (1.0 + eps) / 2.0
    residual = 0.0
    for k in range(chi.J_max + 1):
        for eta in _band_eta_samples(chi, k):
            if float(np.hypot(eta[0], eta[1])) <= cover:
                residual = max(residual, float(np.abs(a.eval(eta) - approx(eta)).max()))
    return SeparableSymbol(a.spec, bands, chi, r=a.r, delta=a.delta, residual=residual)


# ---------------------------------------------------------------------------
# Analytic presets and symbol files
# ---------------------------------------------------------------------------


def preset_identity(spec: GridSpec, r: float = 1.0) -> DenseSymbol:
    return DenseSymbol(spec, lambda eta: np.ones(spec.shape, dtype=complex), r=r)


def preset_multiplier_bessel(spec: GridSpec, order: float, r: float = 1.0) -> DenseSymbol:
    def fn(eta):
        w = (1.0 + eta[0] ** 2 + eta[1] ** 2) ** (order / 2.0)
        return np.full(spec.shape, w, dtype=complex)

    return DenseSymbol(spec, fn, r=r, m=order)


def preset_multiplication(b: GridField, r: float = 1.0) -> DenseSymbol:
    return DenseSymbol(b.spec, lambda eta: b.samples, r=r)


def preset_rough_chirp(
    spec: GridSpec,
    r: float,
    delta: float,
    seed: int = 0,
    chi: LittlewoodPaleyFamily | None = None,
) -> SeparableSymbol:
    """Built-in C^r_* S^0_{1,delta} test family: per eta-band k, a real
    random field whose x-spectrum fills dyadic bands up to scale
    2^{k delta}, with lacunary amplitudes 2^{(k delta - j) r} capped at 1,
    rescaled so the recorded size constants equal 1."""
    rng = _rng(seed)
    chi = _family(chi, spec)
    bands = {}
    for k in range(chi.J_max + 1):
        if k == 0:
            bands[0] = GridField(spec, np.ones(spec.shape, dtype=complex))
            continue
        j_top = min(chi.J_max, max(1, int(np.ceil(k * delta))))
        noise = rng.standard_normal(spec.shape)
        mask = np.zeros(spec.shape)
        for j in range(1, j_top + 1):
            amp = 2.0 ** min(0.0, (k * delta - j) * r)
            mask += amp * chi.values[j]
        v = apply_multiplier(GridField(spec, noise), SpectralMultiplier(spec, mask)).samples.real
        v_field = GridField(spec, v.astype(complex))
        size = max(
            float(np.abs(v).max()),
            2.0 ** (-k * r * delta) * zygmund_norm(v_field, r, chi),
        )
        if size < 1e-14:
            raise ResolutionError(f"chirp band {k} has no resolvable x-content")
        bands[k] = GridField(spec, (v / size).astype(complex))
    return SeparableSymbol(spec, bands, chi, r=r, delta=delta)


def load_symbol(path, spec: GridSpec | None = None):
    """Load a symbol from a JSON descriptor.

    kinds: "separable" (FIOF payload per band), "analytic-preset" /
    "dense" (named preset with parameters; "dense" forces the dense
    representation).
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: symbol descriptor is not a JSON object")
    try:
        return _symbol_from_descriptor(doc, path, spec)
    except KeyError as exc:
        raise InvalidInputError(f"{path}: symbol descriptor lacks {exc}") from None


def _same_grid(path, grid: GridSpec | None, name: str, other: GridSpec | None, what: str):
    """Refuse a grid other than the grid the descriptor runs on, when that one is known."""
    if grid is not None and other is not None and other != grid:
        raise InvalidInputError(f"{path}: {name} {grid} differs from {what} {other}")


# the rules of a descriptor, per kind, and of each preset's params
_SEPARABLE = {"kind": None, "grid": _GRID_SCHEMA, "r": float, "eps": float, "delta": float,
              "bands": [{"k": int, "file": str}]}
_PRESET = {"kind": None, "grid": _GRID_SCHEMA, "preset": None}
# each preset's own top-level keys and params: a rough chirp reads r from its params
_PARAMS = {"identity": ({"r": float}, {}),
           "multiplier_bessel": ({"r": float}, {"m": float}),
           "multiplication": ({"r": float}, {"b_file": str}),
           "rough_chirp": ({}, {"r": float, "delta": float, "seed": int})}


def _symbol_from_descriptor(doc: dict, path, spec: GridSpec | None):
    kind = doc.get("kind")
    if kind not in ("separable", "analytic-preset", "dense"):
        raise InvalidInputError(f"{path}: unknown symbol kind {kind!r}")
    schema = _SEPARABLE
    if kind != "separable":
        name = doc["preset"]
        if not isinstance(name, str) or name not in _PARAMS:
            raise InvalidInputError(f"{path}: unknown preset {name!r}")
        top, params = _PARAMS[name]
        schema = {**_PRESET, **top, "params": params}
    doc = _read(doc, schema, lambda msg: InvalidInputError(f"{path}: symbol descriptor {msg}"))
    base = os.path.dirname(os.path.abspath(path))
    ref, ref_name = spec, "the given grid"
    if "grid" in doc:
        g = doc["grid"]
        ref = GridSpec(n=g.get("n", 2), N=g["N"], L=g["L"])
        _same_grid(path, ref, "symbol descriptor grid", spec, "the given grid")
        spec, ref_name = ref, "symbol descriptor grid"
    if kind == "separable":
        fields = {}
        for entry in doc["bands"]:
            k = entry["k"]
            if k in fields:
                raise InvalidInputError(f"{path}: symbol descriptor lists band {k} twice")
            fields[k] = read_fiof(os.path.join(base, entry["file"]))
            _same_grid(path, ref, ref_name, fields[k].spec, f"band {k}'s file grid")
            if ref is None:  # neither declared nor given: the first band file's grid
                ref, ref_name = fields[k].spec, f"band {k}'s file grid"
            spec = fields[k].spec
    if spec is None:
        raise InvalidInputError(f"{path}: symbol descriptor lacks a grid")
    r = doc.get("r", 1.0)
    if kind == "separable":
        fam = LittlewoodPaleyFamily(spec, doc.get("eps", 0.125))
        return SeparableSymbol(spec, fields, fam, r=r, delta=doc.get("delta", 0.0))
    params = doc.get("params", {})
    if name == "identity":
        return preset_identity(spec, r=r)
    if name == "multiplier_bessel":
        return preset_multiplier_bessel(spec, params["m"], r=r)
    if name == "multiplication":
        b = read_fiof(os.path.join(base, params["b_file"]))
        _same_grid(path, ref, ref_name, b.spec, "b_file's grid")
        return preset_multiplication(b, r=r)
    sym = preset_rough_chirp(spec, params["r"], params["delta"], seed=params.get("seed", 0))
    return sym.densify() if kind == "dense" else sym
