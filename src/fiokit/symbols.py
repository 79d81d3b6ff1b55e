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
from dataclasses import dataclass

import numpy as np

from .dyadic import AuxiliaryFamilies, LittlewoodPaleyFamily, build_auxiliary
from .errors import DimensionError, InvalidInputError, ParameterError, ResolutionError, _convert
from .grid import GridField, GridSpec, SpectralMultiplier, apply_multiplier, lattice, read_fiof
from .grid import _check_specs, forward_transform, inverse_transform
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

    def eval(self, eta) -> np.ndarray:
        """x-grid slice a(., eta), always a full complex array."""
        eta = np.asarray(eta, dtype=float)
        out = np.asarray(self.field(eta), dtype=complex)
        if out.ndim == 0:
            out = np.full(self.spec.shape, complex(out))
        if out.shape != self.spec.shape:
            raise InvalidInputError("symbol slice shape does not match grid")
        return out


@dataclass
class SeparableSymbol:
    """a(x, eta) = Sum_k a_k(x) chi_k(eta) against a dyadic band family."""

    spec: GridSpec
    bands: dict
    chi: LittlewoodPaleyFamily
    r: float = 1.0
    delta: float = 0.0
    residual: float = 0.0

    def __post_init__(self):
        _check_class(self.r, self.delta)
        for k, a_k in self.bands.items():
            if not (0 <= k <= self.chi.J_max):
                raise ParameterError(f"band index {k} outside family range")
            if a_k.spec != self.spec:
                raise DimensionError("band field grid differs from symbol grid")

    def densify(self) -> DenseSymbol:
        """The same symbol as a DenseSymbol.  Its band weights depend on |eta|
        only, so each slice reads them from a dict keyed by the radius, filled
        by one band_weights call the first time a radius is seen.  The dict
        holds J_max + 1 floats per distinct radius evaluated: a full lattice
        walk adds about 500 entries at N = 64 and 1 850 at N = 128 (0.15 MB
        at N = 64, L = 8 pi and 0.75 MB at N = 128, L = 2 pi as Python
        lists), and each off-lattice evaluation at a new radius, such as a
        seminorm finite difference, adds one."""
        weights = {}

        def fn(eta):
            rho = float(np.hypot(eta[0], eta[1]))
            w = weights.get(rho)
            if w is None:
                w = weights[rho] = self.chi.band_weights(rho).tolist()
            out = np.zeros(self.spec.shape, dtype=complex)
            for k, a_k in self.bands.items():
                if w[k] != 0.0:
                    out += w[k] * a_k.samples
            return out

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


@dataclass
class SmoothingSplit:
    """Exact split a = sharp + flat with sharp the x-smoothed part."""

    gamma: float
    sharp: DenseSymbol
    flat: DenseSymbol


def smooth_split(a: DenseSymbol, gamma: float, fam: LittlewoodPaleyFamily | None = None) -> SmoothingSplit:
    """Per eta-band k, low-pass a(., eta) in x below scale 2^{gamma k};
    the flat part is the closure a - sharp, so the split is exact."""
    if not (a.delta <= gamma <= 1.0):
        raise ParameterError(f"gamma={gamma} must lie in [delta={a.delta}, 1]")
    if fam is None:
        fam = LittlewoodPaleyFamily(a.spec)
    mags = lattice(a.spec).mags

    def smoothed(s, eta):
        # Sum_k w_k ifft(h_k fft(s)) = ifft((Sum_k w_k h_k) fft(s)): one pair
        cut = np.zeros(a.spec.shape)
        for k, w in enumerate(fam.band_weights(np.hypot(eta[0], eta[1])).tolist()):
            if w != 0.0:
                cut += w * fam.lowpass_profile(2.0 ** (-gamma * k) * mags)
        return apply_multiplier(GridField(a.spec, s), SpectralMultiplier(a.spec, cut)).samples

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
    if fam is None:
        fam = LittlewoodPaleyFamily(a.spec)

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
    """Sum_k (psi_k(D) f)(W_k(D) b) with W_k = Sum_{j in window(k)} psi_j: one forward
    transform of b, then per k with a non-empty window a band of f and one inverse.
    When no window is non-empty the sum is zero and nothing is transformed."""
    if b.spec != f.spec:
        raise DimensionError("paraproduct operands on different grids")
    if fam is None:
        fam = LittlewoodPaleyFamily(b.spec)
    _check_specs(fam.spec, f.spec)
    out = np.zeros(b.spec.shape, dtype=complex)
    ks = [k for k in range(fam.J_max + 1) if fam.values[window(k)]]
    if ks:
        spectrum = forward_transform(b)
        for k, fk in fam.bands(f, ks):
            out += fk * inverse_transform(sum(fam.values[window(k)]) * spectrum, b.spec).samples
    return GridField(b.spec, out)


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
    aux: AuxiliaryFamilies


def coifman_meyer_decompose(
    a: DenseSymbol,
    beta_max: int,
    bands=None,
    aux: AuxiliaryFamilies | None = None,
) -> FourierModeDecomposition:
    """Fourier modes of the band-k symbol on a uniform P x P grid of zeta in [-1/2, 1/2)^n,
    c_beta = P^-2 Sum_zeta (psi_k a)(., 2^{k+1} pi zeta) e^{-2 pi i beta.zeta},
    summed directly for |beta|_inf <= beta_max.  Memory is (2 beta_max + 1)^2 N^n for
    the kept modes plus P N^n for one zeta_1 row of symbol slices."""
    if beta_max < 0:
        raise ParameterError("beta_max must be >= 0")
    if aux is None:
        aux = build_auxiliary(a.spec)
    P = 32
    while P < 4 * max(beta_max, 1):
        P *= 2
    fam = aux.psi
    if bands is None:
        bands = range(fam.J_max + 1)
    zeta = (np.arange(P) - P / 2) / P
    Z1, Z2 = np.meshgrid(zeta, zeta, indexing="ij")
    betas = range(-beta_max, beta_max + 1)
    phase = np.exp(-2j * np.pi * np.outer(betas, zeta)) / P
    row = np.empty((P,) + a.spec.shape, dtype=complex)
    coeffs = {}
    for k in bands:
        scale = 2.0 ** (k + 1) * np.pi
        window = fam.band_profile(k, scale * np.hypot(Z1, Z2))
        acc = np.zeros((len(betas), len(betas)) + a.spec.shape, dtype=complex)
        for i1 in np.flatnonzero(window.any(axis=1)):
            cols = np.flatnonzero(window[i1])
            for j, i2 in enumerate(cols):
                row[j] = window[i1, i2] * a.eval(scale * np.array([zeta[i1], zeta[i2]]))
            inner = np.tensordot(phase[:, cols], row[: len(cols)], axes=1)
            for j1 in range(len(betas)):
                acc[j1] += phase[j1, i1] * inner
        coeffs[k] = {(b1, b2): acc[j1, j2] for j1, b1 in enumerate(betas)
                     for j2, b2 in enumerate(betas)}
    return FourierModeDecomposition(a.spec, beta_max, P, coeffs, aux)


def reconstruct_modes(d: FourierModeDecomposition, k: int, eta) -> np.ndarray:
    """Partial-sum approximation of a(., eta) psi_k(eta) from the modes."""
    if k not in d.coeffs:
        raise ParameterError(f"band {k} not present in the decomposition")
    eta = np.asarray(eta, dtype=float)
    rho = float(np.hypot(eta[0], eta[1]))
    wide = float(d.aux.tilde_profile(k, rho))
    out = np.zeros(d.spec.shape, dtype=complex)
    if wide == 0.0:
        return out
    for (b1, b2), c in d.coeffs[k].items():
        phase = np.exp(1j * (b1 * eta[0] + b2 * eta[1]) * 2.0 ** (-k))
        out += c * phase
    return wide * out


def to_separable(
    a: DenseSymbol, chi: LittlewoodPaleyFamily | None = None
) -> SeparableSymbol:
    """Band-center sampling a_k(x) = a(x, eta_k*) with eta_k* on the chi_k
    plateau; exact when a is eta-flat within each band (residual reported)."""
    if chi is None:
        chi = LittlewoodPaleyFamily(a.spec)
    eps = chi.eps
    bands = {}
    for k in range(chi.J_max + 1):
        if k == 0:
            eta_star = np.zeros(2)
        else:
            eta_star = np.array([2.0 ** (k - 1) * (1.0 + eps / 4.0), 0.0])
        bands[k] = GridField(a.spec, a.eval(eta_star))
    sym = SeparableSymbol(a.spec, bands, chi, r=a.r, delta=a.delta)
    approx = sym.densify()
    # The finite family sums to 1 only up to this radius; beyond it the
    # lattice has no content, so residual sampling stops there.
    cover = 2.0**chi.J_max * (1.0 + eps) / 2.0
    for k in range(chi.J_max + 1):
        for eta in _band_eta_samples(chi, k):
            if float(np.hypot(eta[0], eta[1])) <= cover:
                diff = float(np.abs(a.eval(eta) - approx.eval(eta)).max())
                sym.residual = max(sym.residual, diff)
    return sym


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
    if seed < 0:
        raise ParameterError(f"seed={seed} must be non-negative")
    if chi is None:
        chi = LittlewoodPaleyFamily(spec)
    rng = np.random.default_rng(seed)
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
    sym = SeparableSymbol(spec, bands, chi, r=r, delta=delta)
    return sym


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


def _scalar(path, name: str, kind, val):
    """A descriptor field through errors._convert; failing, an InvalidInputError naming it."""
    try:
        return _convert(name, kind, val)
    except ParameterError as exc:
        raise InvalidInputError(f"{path}: symbol descriptor {exc}") from None


def _symbol_from_descriptor(doc: dict, path, spec: GridSpec | None):
    kind = doc.get("kind")
    base = os.path.dirname(os.path.abspath(path))
    if spec is None and "grid" in doc:
        g = doc["grid"]
        if not isinstance(g, dict):
            raise InvalidInputError(f"{path}: symbol descriptor grid {g!r} is not an object")
        spec = GridSpec(n=g.get("n", 2), N=g["N"], L=g["L"])
    if kind == "separable":
        fields = {}
        if not isinstance(doc["bands"], list):
            raise InvalidInputError(f"{path}: symbol descriptor bands are not a list")
        for entry in doc["bands"]:
            if not isinstance(entry, dict):
                raise InvalidInputError(f"{path}: symbol descriptor band {entry!r} is not an object")
            k = _scalar(path, "band k", int, entry["k"])
            if k in fields:
                raise InvalidInputError(f"{path}: symbol descriptor lists band {k} twice")
            fields[k] = read_fiof(os.path.join(base, entry["file"]))
            spec = fields[k].spec
    elif kind not in ("analytic-preset", "dense"):
        raise InvalidInputError(f"{path}: unknown symbol kind {kind!r}")
    if spec is None:
        raise InvalidInputError(f"{path}: symbol descriptor lacks a grid")
    r = _scalar(path, "r", float, doc.get("r", 1.0))
    if kind == "separable":
        eps = _scalar(path, "eps", float, doc.get("eps", 0.125))
        delta = _scalar(path, "delta", float, doc.get("delta", 0.0))
        return SeparableSymbol(spec, fields, LittlewoodPaleyFamily(spec, eps), r=r, delta=delta)
    name = doc["preset"]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInputError(f"{path}: symbol descriptor params {params!r} are not an object")
    if name == "identity":
        return preset_identity(spec, r=r)
    if name == "multiplier_bessel":
        return preset_multiplier_bessel(spec, _scalar(path, "params.m", float, params["m"]), r=r)
    if name == "multiplication":
        return preset_multiplication(read_fiof(os.path.join(base, params["b_file"])), r=r)
    if name == "rough_chirp":
        sym = preset_rough_chirp(
            spec,
            _scalar(path, "params.r", float, params["r"]),
            _scalar(path, "params.delta", float, params["delta"]),
            seed=_scalar(path, "params.seed", int, params.get("seed", 0)),
        )
        return sym.densify() if kind == "dense" else sym
    raise InvalidInputError(f"{path}: unknown preset {name!r}")
