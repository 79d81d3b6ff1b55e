import json
import tracemalloc

import numpy as np
import pytest

import fiokit as fk
from conftest import plane_wave, random_field


@pytest.fixture(scope="module")
def spec_mid():
    # spacing 1/4, axis range 8: resolves bands 1..4 with >= 5 axis samples
    return fk.GridSpec(N=64, L=8.0 * np.pi)


@pytest.fixture(scope="module")
def fam_mid(spec_mid):
    return fk.build_lp_family(spec_mid)


# ---------------------------------------------------------------------------
# seminorm estimation
# ---------------------------------------------------------------------------


def test_seminorms_constant_symbol(spec_mid, fam_mid):
    a = fk.preset_identity(spec_mid)
    report = fk.estimate_seminorms(a, 2, fam_mid)
    assert report[(0, 0)] == pytest.approx(1.0, rel=1e-10)
    for alpha, val in report.items():
        if alpha != (0, 0):
            assert abs(val) < 1e-8


def test_seminorms_bessel_symbol(spec_mid, fam_mid):
    order = 0.8
    a = fk.preset_multiplier_bessel(spec_mid, order)
    report = fk.estimate_seminorms(a, 2, fam_mid)
    assert report[(0, 0)] == pytest.approx(1.0, rel=1e-10)
    # |d1 <eta>^m| <eta>^{1-m} = |m eta1| / <eta> <= m
    assert 0.0 < report[(1, 0)] <= order * 1.05
    for val in report.values():
        assert np.isfinite(val)


def test_seminorms_multiplication_reduces_to_zygmund(spec_mid, fam_mid):
    b = plane_wave(spec_mid, (2.0, 0.0))  # single-band x-content
    r = 1.3
    a = fk.preset_multiplication(b, r=r)
    report = fk.estimate_seminorms(a, 1, fam_mid)
    assert report[(0, 0)] == pytest.approx(fk.zygmund_norm(b, r, fam_mid), rel=1e-8)


def test_seminorms_resolution_error():
    # spacing 1: band 1 holds a single axis frequency
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    a = fk.preset_identity(spec)
    with pytest.raises(fk.ResolutionError):
        fk.estimate_seminorms(a, 1)


# ---------------------------------------------------------------------------
# symbol smoothing
# ---------------------------------------------------------------------------


def test_smooth_split_exactness(spec_mid, fam_mid, rng):
    chirp = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid)
    a = chirp.densify()
    etas = [np.array([0.3, 0.1]), np.array([1.9, 0.8]), np.array([5.0, -2.0])]
    for gamma in (0.5, 0.625, 0.75, 1.0):
        split = fk.smooth_split(a, gamma, fam_mid)
        for eta in etas:
            ref = a.eval(eta)
            resid = split.sharp.eval(eta) + split.flat.eval(eta) - ref
            assert np.abs(resid).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


def test_smooth_split_flat_is_closure_of_sharp(spec_mid, fam_mid):
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid).densify()
    split = fk.smooth_split(a, 0.75, fam_mid)
    for eta in (np.array([0.3, 0.1]), np.array([1.9, 0.8]), np.array([5.0, -2.0])):
        want = a.eval(eta) - split.sharp.eval(eta)
        assert split.flat.eval(eta).tobytes() == want.tobytes()


def test_smooth_split_flat_evaluates_symbol_once(spec_mid, fam_mid, monkeypatch):
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid).densify()
    field = a.field
    evals, calls = [], []

    def counted_field(eta):
        evals.append(1)
        return field(eta)

    a.field = counted_field
    split = fk.smooth_split(a, 0.75, fam_mid)
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    split.flat.eval(np.array([1.9, 0.8]))
    assert len(evals) == 1
    assert len(calls) == 1


def test_smooth_split_x_independent_has_zero_flat(spec_mid, fam_mid):
    a = fk.preset_multiplier_bessel(spec_mid, 0.5)
    split = fk.smooth_split(a, 0.75, fam_mid)
    for eta in (np.array([0.0, 0.0]), np.array([2.2, 1.0])):
        flat = split.flat.eval(eta)
        assert np.abs(flat).max() <= 1e-12 * np.abs(a.eval(eta)).max()


def test_smooth_split_band_thresholds(spec_mid, fam_mid):
    b = plane_wave(spec_mid, (2.0, 0.0))  # x-frequency magnitude 2
    a = fk.preset_multiplication(b)
    split = fk.smooth_split(a, 1.0, fam_mid)
    # band-2 plateau: 2^{-2} * 2 = 0.5 inside the low-pass plateau -> flat = 0
    eta2 = np.array([2.0, 0.0])
    assert np.abs(split.flat.eval(eta2)).max() <= 1e-12
    # band-1 plateau: 2^{-1} * 2 = 1 beyond the low-pass support -> sharp = 0
    eta1 = np.array([1.0, 0.0])
    assert np.abs(split.sharp.eval(eta1)).max() <= 1e-12


def test_smooth_split_rejects_non_finite_slice(spec_mid, fam_mid):
    a = fk.DenseSymbol(spec_mid, lambda eta: np.full(spec_mid.shape, np.nan))
    split = fk.smooth_split(a, 0.75, fam_mid)
    with pytest.raises(fk.InvalidInputError):
        split.sharp.eval(np.array([1.0, 0.0]))


def test_smooth_split_gamma_below_delta(spec_mid, fam_mid):
    chirp = fk.preset_rough_chirp(spec_mid, 1.0, 0.5, chi=fam_mid)
    with pytest.raises(fk.ParameterError):
        fk.smooth_split(chirp.densify(), 0.25, fam_mid)


def test_smooth_split_flat_declared_order(spec_mid, fam_mid):
    chirp = fk.preset_rough_chirp(spec_mid, 2.0, 0.5, chi=fam_mid)
    split = fk.smooth_split(chirp.densify(), 0.75, fam_mid)
    assert split.flat.m == pytest.approx(-(0.75 - 0.5) * 2.0)


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------


def test_paraproduct_completeness(spec_mid, fam_mid, rng):
    b = random_field(spec_mid, rng, real=True)
    f = random_field(spec_mid, rng)
    total = (
        fk.paraproduct_hh(b, f, fam_mid).samples
        + fk.paraproduct_hl(b, f, fam_mid).samples
        + fk.paraproduct_lh(b, f, fam_mid).samples
    )
    prod = b.samples * f.samples
    assert np.abs(total - prod).max() <= 1e-12 * np.abs(prod).max()


def test_paraproduct_constant_b(spec_mid, fam_mid, rng):
    c = 1.7
    b = fk.GridField(spec_mid, np.full(spec_mid.shape, c))
    f = random_field(spec_mid, rng)
    hh = fk.paraproduct_hh(b, f, fam_mid)
    ref = sum(
        fk.lp_project(f, k, fam_mid).samples for k in range(min(5, fam_mid.J_max) + 1)
    )
    assert np.abs(hh.samples - c * ref).max() <= 1e-12 * np.abs(f.samples).max()
    assert np.abs(fk.paraproduct_hl(b, f, fam_mid).samples).max() <= 1e-13


def test_paraproduct_separated_bands(spec_fine, fam_fine):
    # b in band 8, f in band 1: only the high-low piece survives
    b = plane_wave(spec_fine, (124.0, 0.0))
    f = plane_wave(spec_fine, (1.0, 0.0))
    prod = b.samples * f.samples
    hl = fk.paraproduct_hl(b, f, fam_fine)
    assert np.abs(hl.samples - prod).max() <= 1e-12
    assert np.abs(fk.paraproduct_hh(b, f, fam_fine).samples).max() <= 1e-13
    # swapped roles: only the low-high remainder survives
    lh = fk.paraproduct_lh(f, b, fam_fine)
    assert np.abs(lh.samples - prod).max() <= 1e-12


def test_paraproduct_bilinearity(spec_mid, fam_mid, rng):
    b1 = random_field(spec_mid, rng)
    b2 = random_field(spec_mid, rng)
    f = random_field(spec_mid, rng)
    lhs = fk.paraproduct_hh(b1 + b2, f, fam_mid).samples
    rhs = fk.paraproduct_hh(b1, f, fam_mid).samples + fk.paraproduct_hh(b2, f, fam_mid).samples
    assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()


def test_paraproduct_f_constant_remainder_zero(spec_mid, fam_mid, rng):
    b = random_field(spec_mid, rng)
    f = fk.GridField(spec_mid, np.ones(spec_mid.shape))
    assert np.abs(fk.paraproduct_lh(b, f, fam_mid).samples).max() <= 1e-13


@pytest.mark.parametrize("piece, pair", [
    (fk.paraproduct_hh, lambda j, k: abs(j - k) <= 5),
    (fk.paraproduct_hl, lambda j, k: j >= k + 6),
    (fk.paraproduct_lh, lambda j, k: j <= k - 6),
], ids=["hh", "hl", "lh"])
def test_paraproducts_equal_the_all_pairs_sum(rng, piece, pair):
    # J_max = 12: the hh windows of k <= 5 are clipped below, those of
    # k >= 8 above, and those of k = 6, 7 at neither end
    spec = fk.GridSpec(N=64, L=0.25)
    fam = fk.build_lp_family(spec)
    assert fam.J_max == 12
    b = random_field(spec, rng, real=True)
    f = random_field(spec, rng)
    b_bands, f_bands = dict(fam.bands(b)), dict(fam.bands(f))
    ref = sum(b_bands[j] * f_bands[k] for k in f_bands for j in b_bands if pair(j, k))
    got = piece(b, f, fam).samples
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("piece, count", [(fk.paraproduct_hh, 22), (fk.paraproduct_hl, 10),
                                          (fk.paraproduct_lh, 10)], ids=["hh", "hl", "lh"])
def test_paraproduct_transform_counts(spec_fine, fam_fine, rng, monkeypatch, piece, count):
    # J_max = 9: hh has a window for every k, hl for k <= 3 and lh for k >= 6
    assert fam_fine.J_max == 9
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    piece(random_field(spec_fine, rng), random_field(spec_fine, rng), fam_fine)
    assert len(calls) == count
    assert calls.count("fftn") == 2


@pytest.mark.parametrize("piece, count", [(fk.paraproduct_hh, 14), (fk.paraproduct_hl, 0),
                                          (fk.paraproduct_lh, 0)], ids=["hh", "hl", "lh"])
def test_paraproduct_with_no_window_transforms_nothing(rng, monkeypatch, piece, count):
    # J_max = 5 < 6: no k has an hl or lh window, so those pieces are zero
    spec = fk.GridSpec(N=16, L=2 * np.pi)
    fam = fk.build_lp_family(spec)
    assert fam.J_max == 5
    b, f = random_field(spec, rng), random_field(spec, rng)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    got = piece(b, f, fam)
    assert len(calls) == count
    if count == 0:
        assert got.samples.tobytes() == np.zeros(spec.shape, dtype=complex).tobytes()


# ---------------------------------------------------------------------------
# Fourier-mode decomposition
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spec_cm():
    return fk.GridSpec(N=32, L=8.0 * np.pi)


def test_modes_of_eta_independent_symbol(spec_cm):
    rngl = np.random.default_rng(5)
    g = fk.inverse_transform(
        fk.build_lp_family(spec_cm).values[1]
        * (rngl.standard_normal(spec_cm.shape) + 1j * rngl.standard_normal(spec_cm.shape)),
        spec_cm,
    )
    a = fk.preset_multiplication(g)
    aux = fk.LittlewoodPaleyFamily(spec_cm)
    k, beta_max = 3, 12
    d = fk.coifman_meyer_decompose(a, beta_max, bands=[k], fam=aux)
    fam = aux
    # independent window-coefficient oracle: direct sums on the same
    # sub-grid, no FFT indexing shared with the implementation
    P = d.subgrid
    scale = 2.0 ** (k + 1) * np.pi
    zeta = (np.arange(P) - P / 2) / P
    Z1, Z2 = np.meshgrid(zeta, zeta, indexing="ij")
    W = fam.band_profile(k, scale * np.hypot(Z1, Z2))
    modes = [(b1, b2) for b1 in range(-beta_max, beta_max + 1)
             for b2 in range(-beta_max, beta_max + 1)]
    w_hat = {
        b: complex((W * np.exp(-2j * np.pi * (b[0] * Z1 + b[1] * Z2))).sum() / P**2)
        for b in modes
    }
    gmax = np.abs(g.samples).max()
    # a = g is eta-independent, so c_beta = g times the window's coefficient
    for b in modes:
        assert np.abs(d.coeffs[k][b] - g.samples * w_hat[b]).max() <= 1e-12 * gmax


def test_modes_zero_symbol(spec_cm):
    a = fk.DenseSymbol(spec_cm, lambda eta: np.zeros(spec_cm.shape, complex))
    d = fk.coifman_meyer_decompose(a, 4, bands=[2])
    for c in d.coeffs[2].values():
        assert np.abs(c).max() == 0.0


def test_mode_decay_on_smooth_symbol(spec_cm):
    k = 3

    def fn(eta):
        w = np.exp(-(eta[0] ** 2 + eta[1] ** 2) / 4.0 ** (k + 1))
        return np.full(spec_cm.shape, w, dtype=complex)

    a = fk.DenseSymbol(spec_cm, fn)
    # the rescaled window fills only a small annulus of the mode cell, so
    # x10 coefficient decay is reached near |beta|_inf = 12 (measured)
    m = 12
    d = fk.coifman_meyer_decompose(a, m, bands=[k])
    peak0 = np.abs(d.coeffs[k][(0, 0)]).max()
    edge = max(
        np.abs(c).max() for b, c in d.coeffs[k].items() if max(abs(b[0]), abs(b[1])) == m
    )
    assert edge <= peak0 / 10.0
    mid = max(
        np.abs(c).max() for b, c in d.coeffs[k].items() if max(abs(b[0]), abs(b[1])) == 4
    )
    assert edge < mid <= peak0


def _fft2_modes(a, beta_max, k, aux, P):
    """The earlier FFT formulation: transform the whole P x P sub-grid,
    keep (2 beta_max + 1)^2 coefficients and undo the index offset."""
    zeta = (np.arange(P) - P / 2) / P
    scale = 2.0 ** (k + 1) * np.pi
    g = np.zeros((P, P) + a.spec.shape, dtype=complex)
    for i1, z1 in enumerate(zeta):
        for i2, z2 in enumerate(zeta):
            eta = scale * np.array([z1, z2])
            w = float(aux.band_profile(k, np.hypot(eta[0], eta[1])))
            if w != 0.0:
                g[i1, i2] = w * a.eval(eta)
    ghat = np.fft.fft2(g, axes=(0, 1))
    return {
        (b1, b2): (-1.0) ** (b1 + b2) * ghat[b1 % P, b2 % P] / P**2
        for b1 in range(-beta_max, beta_max + 1)
        for b2 in range(-beta_max, beta_max + 1)
    }


def _assert_modes_match_fft2(a, beta_max, aux):
    d = fk.coifman_meyer_decompose(a, beta_max, fam=aux)
    assert sorted(d.coeffs) == list(range(aux.J_max + 1))
    for k, got in d.coeffs.items():
        ref = _fft2_modes(a, beta_max, k, aux, d.subgrid)
        assert sorted(got) == sorted(ref)
        scale = max(float(np.abs(c).max()) for c in ref.values())
        err = max(float(np.abs(got[b] - ref[b]).max()) for b in ref)
        assert err <= 1e-12 * scale


@pytest.mark.parametrize("beta_max", [0, 2, 12])
def test_modes_match_fft2_formula(spec_cm, beta_max):
    # x-dependent and odd in eta, so c_beta and c_-beta differ
    rngl = np.random.default_rng(8)
    g, h = (random_field(spec_cm, rngl).samples for _ in range(2))

    def fn(eta):
        rho = np.hypot(eta[0], eta[1])
        return g * np.exp(0.3j * (eta[0] - 0.5 * eta[1])) + h * eta[0] / (1.0 + rho)

    _assert_modes_match_fft2(fk.DenseSymbol(spec_cm, fn), beta_max, fk.LittlewoodPaleyFamily(spec_cm))


def test_modes_match_fft2_formula_on_chirp(spec_mid, fam_mid):
    chirp = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=0, chi=fam_mid)
    _assert_modes_match_fft2(chirp.densify(), 2, fk.LittlewoodPaleyFamily(spec_mid))


def test_modes_memory_ceiling(rng):
    # the sub-grid FFT held P^2 N^2 complex values per band, 1.07 GB here
    spec = fk.GridSpec(N=256, L=2.0 * np.pi)
    a = fk.preset_multiplication(random_field(spec, rng))
    aux = fk.LittlewoodPaleyFamily(spec)
    tracemalloc.start()
    try:
        fk.coifman_meyer_decompose(a, 2, bands=[3], fam=aux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20


@pytest.mark.parametrize("piece", ["paraproduct_hh", "paraproduct_hl", "paraproduct_lh"])
def test_paraproduct_peak_memory(piece):
    # b^, f^, the sum and the band sum's scratch grid are four complex grids
    # (4.2 MB at N=256); each term's fresh W_k and band grid are released before the next
    spec = fk.GridSpec(N=256, L=2.0 * np.pi)
    fam = fk.build_lp_family(spec)
    rng = np.random.default_rng(0)
    b, f = random_field(spec, rng, real=True), random_field(spec, rng, real=True)
    fn = getattr(fk, piece)
    fn(b, f, fam)
    tracemalloc.start()
    try:
        fn(b, f, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.4e6


def test_mode_validation(spec_cm):
    a = fk.preset_identity(spec_cm)
    with pytest.raises(fk.ParameterError):
        fk.coifman_meyer_decompose(a, -1)


# ---------------------------------------------------------------------------
# separable conversion and presets
# ---------------------------------------------------------------------------


def test_densify_eval_runs_one_lowpass_call(spec_mid, fam_mid, monkeypatch):
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid).densify()
    calls = []
    lowpass = fk.LittlewoodPaleyFamily.lowpass_profile

    def counted(self, t):
        calls.append(1)
        return lowpass(self, t)

    monkeypatch.setattr(fk.LittlewoodPaleyFamily, "lowpass_profile", counted)
    a.eval(np.array([1.9, 0.8]))
    assert len(calls) == 1


def test_densify_computes_weights_once_per_radius(spec_mid, fam_mid, rng, monkeypatch):
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid).densify()
    f = random_field(spec_mid, rng)
    visited = fk.forward_transform(f) != 0
    etas = fk.lattice(spec_mid).points().reshape(spec_mid.shape + (2,))[visited]
    radii = {float(np.hypot(eta[0], eta[1])) for eta in etas}
    calls = []
    lowpass = fk.LittlewoodPaleyFamily.lowpass_profile

    def counted(self, t):
        calls.append(1)
        return lowpass(self, t)

    monkeypatch.setattr(fk.LittlewoodPaleyFamily, "lowpass_profile", counted)
    first = fk.apply_dense(a, f)
    assert len(calls) == len(radii)
    calls.clear()
    second = fk.apply_dense(a, f)
    assert calls == []
    assert second.samples.tobytes() == first.samples.tobytes()


# three lattice frequencies of spec_mid (spacing 1/4) and two off it
MID_ETAS = [np.array(eta) for eta in
            ([0.0, 0.0], [0.25, 0.5], [2.0, -1.5], [1.9, 0.8], [5.0, -2.1])]


def test_densify_slice_is_the_band_sum(spec_mid, fam_mid):
    chirp = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid)
    a = chirp.densify()
    for eta in MID_ETAS:
        w = fam_mid.band_weights(np.hypot(eta[0], eta[1])).tolist()
        want = np.zeros(spec_mid.shape, dtype=complex)
        for k, a_k in chirp.bands.items():
            if w[k] != 0.0:
                want += w[k] * a_k.samples
        # the first evaluation fills the radius' weights, the second reads them
        assert a.eval(eta).tobytes() == want.tobytes()
        assert a.eval(eta).tobytes() == want.tobytes()


def test_densified_slices_are_shared_and_never_written(spec_mid, fam_mid, rng):
    chirp = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid)
    before = {k: a_k.samples.tobytes() for k, a_k in chirp.bands.items()}
    a = chirp.densify()
    # |eta| = 2 lies on band 2's plateau [2 (1 - eps/2), 2 (1 + eps)]; 1.9 between bands 1 and 2
    plateau, overlap = np.array([2.0, 0.0]), np.array([1.9, 0.8])
    assert fam_mid.band_weights(2.0).tolist().count(0.0) == fam_mid.J_max
    assert fam_mid.band_weights(2.0)[2] == 1.0
    assert a.eval(plateau) is chirp.bands[2].samples
    f = random_field(spec_mid, rng)
    split = fk.smooth_split(a, 0.75, fam_mid)
    calls = {
        "apply_dense": lambda: fk.apply_dense(a, f),
        "apply_dense_adjoint": lambda: fk.apply_dense_adjoint(a, f),
        "sharp": lambda: [split.sharp.eval(eta) for eta in (plateau, overlap)],
        "flat": lambda: [split.flat.eval(eta) for eta in (plateau, overlap)],
        "coifman_meyer_decompose": lambda: fk.coifman_meyer_decompose(a, 1, bands=[1, 2, 3]),
        "estimate_seminorms": lambda: fk.estimate_seminorms(a, 1, fam_mid),
        "to_separable": lambda: fk.to_separable(a, fam_mid),
    }
    for name, call in calls.items():
        result = call()
        assert {k: a_k.samples.tobytes() for k, a_k in chirp.bands.items()} == before, name
    # to_separable, run last, keeps copies: its band 2, sampled on the plateau, shares no memory
    assert all(not np.shares_memory(b.samples, a_k.samples)
               for b in result.bands.values() for a_k in chirp.bands.values())


def _per_eta_cutoff(fam, gamma, eta):
    """The x-cutoff of smooth_split at eta as a sum rebuilt for each eta, the reference."""
    mags = fk.lattice(fam.spec).mags
    cut = np.zeros(fam.spec.shape)
    for k, w in enumerate(fam.band_weights(np.hypot(eta[0], eta[1])).tolist()):
        if w != 0.0:
            cut += w * fam.lowpass_profile(2.0 ** (-gamma * k) * mags)
    return cut


@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0])
def test_smooth_split_builds_its_cutoffs_once(spec_mid, fam_mid, monkeypatch, gamma):
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid).densify()
    # band 2's plateau, an overlap, and a radius beyond every band, where the cutoff is 0
    etas = MID_ETAS + [np.array([2.0, 0.0]), np.array([100.0, 0.0])]
    want = [_per_eta_cutoff(fam_mid, gamma, eta) for eta in etas]
    slices = [a.eval(eta) for eta in etas]
    calls, cuts = [], []
    lowpass = fk.LittlewoodPaleyFamily.lowpass_profile

    def counted(self, t):
        calls.append(1)
        return lowpass(self, t)

    class Recorded(fk.SpectralMultiplier):
        def __post_init__(self):
            super().__post_init__()
            cuts.append(self.values)

    monkeypatch.setattr(fk.LittlewoodPaleyFamily, "lowpass_profile", counted)
    monkeypatch.setattr(fk.symbols, "SpectralMultiplier", Recorded)
    split = fk.smooth_split(a, gamma, fam_mid)
    assert len(calls) == fam_mid.J_max + 1
    for eta, cut, s in zip(etas, want, slices):
        # a new radius costs one band_weights call, a repeated one none
        for count in (1, 0):
            calls.clear()
            sharp = split.sharp.eval(eta)
            assert len(calls) == count
            assert cuts.pop().astype(complex).tobytes() == cut.astype(complex).tobytes()
        ref = fk.apply_multiplier(fk.GridField(spec_mid, s), fk.SpectralMultiplier(spec_mid, cut))
        assert sharp.tobytes() == ref.samples.tobytes()


OTHER_L = 4.0 * np.pi


@pytest.mark.parametrize("call", [
    lambda a, other, frame, other_frame: fk.zygmund_norm(a.bands[1], 1.5, other),
    lambda a, other, frame, other_frame: fk.build_test_family(a.spec, frame, [1], fam=other),
    lambda a, other, frame, other_frame: fk.build_test_family(a.spec, other_frame, [1]),
    lambda a, other, frame, other_frame: fk.smooth_split(a.densify(), 0.75, other),
    lambda a, other, frame, other_frame: fk.estimate_seminorms(a.densify(), 1, other),
    lambda a, other, frame, other_frame: fk.paraproduct_hh(a.bands[1], a.bands[2], other),
    lambda a, other, frame, other_frame: fk.paraproduct_hl(a.bands[1], a.bands[2], other),
    lambda a, other, frame, other_frame: fk.paraproduct_lh(a.bands[1], a.bands[2], other),
    lambda a, other, frame, other_frame: fk.coifman_meyer_decompose(
        a.densify(), 1, bands=[1], fam=other),
    lambda a, other, frame, other_frame: fk.to_separable(a.densify(), other),
    lambda a, other, frame, other_frame: fk.preset_rough_chirp(a.spec, 1.5, 0.5, chi=other),
    lambda a, other, frame, other_frame: fk.SeparableSymbol(a.spec, a.bands, other),
], ids=["zygmund_norm", "build_test_family", "build_test_family-frame", "smooth_split",
        "estimate_seminorms", "paraproduct_hh", "paraproduct_hl", "paraproduct_lh",
        "coifman_meyer_decompose", "to_separable", "preset_rough_chirp", "SeparableSymbol"])
def test_entry_points_refuse_a_family_on_another_grid(spec_mid, fam_mid, call):
    # the N = 64, L = 4 pi family has bands 0..6, so spec_mid's bands 0..5 all index it
    other_spec = fk.GridSpec(N=64, L=OTHER_L)
    other = fk.build_lp_family(other_spec)
    assert other.J_max > fam_mid.J_max
    a = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=7, chi=fam_mid)
    frame, other_frame = fk.ParabolicFrame(spec_mid), fk.ParabolicFrame(other_spec)
    with pytest.raises(fk.DimensionError, match="grid specs differ"):
        call(a, other, frame, other_frame)


def test_to_separable_recovers_separable(spec_mid, fam_mid, rng):
    chirp = fk.preset_rough_chirp(spec_mid, 1.0, 0.5, seed=2, chi=fam_mid)
    back = fk.to_separable(chirp.densify(), fam_mid)
    assert back.residual <= 1e-12
    for k, a_k in chirp.bands.items():
        assert np.abs(back.bands[k].samples - a_k.samples).max() <= 1e-12


def test_to_separable_identity(spec_mid, fam_mid):
    sep = fk.to_separable(fk.preset_identity(spec_mid), fam_mid)
    assert sep.residual <= 1e-12
    for a_k in sep.bands.values():
        assert np.abs(a_k.samples - 1.0).max() <= 1e-13


def test_to_separable_oscillation_bound(spec_mid, fam_mid):
    power = 0.1

    def fn(eta):
        w = (1.0 + eta[0] ** 2 + eta[1] ** 2) ** (power / 2.0)
        return np.full(spec_mid.shape, w, dtype=complex)

    a = fk.DenseSymbol(spec_mid, fn)
    sep = fk.to_separable(a, fam_mid)
    # brute-force within-band oscillation of <eta>^0.1
    osc = 0.0
    for k in range(fam_mid.J_max + 1):
        eps = fam_mid.eps
        lo = 0.0 if k == 0 else 2.0 ** (k - 1) * (1 + eps) / 2.0
        hi = 1.0 - eps / 2.0 if k == 0 else 2.0 ** (k - 1) * (2 - eps)
        rhos = np.linspace(lo, hi, 200)
        star = 0.0 if k == 0 else 2.0 ** (k - 1) * (1 + eps / 4.0)
        vals = (1.0 + rhos**2) ** (power / 2.0)
        ref = (1.0 + star**2) ** (power / 2.0)
        osc = max(osc, float(np.abs(vals - ref).max()))
    assert sep.residual <= osc * (1 + 1e-10)


def test_rough_chirp_is_calibrated(spec_mid, fam_mid):
    chirp = fk.preset_rough_chirp(spec_mid, 2.0, 0.5, seed=11, chi=fam_mid)
    consts = chirp.constants()
    assert consts["sup"] == pytest.approx(1.0, abs=1e-12)
    assert consts["weighted_zygmund"] <= 1.0 + 1e-12
    # x-spectrum of band k lives in dyadic bands <= ceil(k/2) (delta = 1/2)
    for k, a_k in chirp.bands.items():
        if k == 0:
            continue
        spectrum = np.abs(fk.forward_transform(a_k))
        j_top = min(fam_mid.J_max, max(1, int(np.ceil(k * 0.5))))
        top_edge = 2.0 ** (j_top - 1) * (2.0 - fam_mid.eps)
        outside = fk.lattice(spec_mid).mags > top_edge
        assert spectrum[outside].max() <= 1e-12 * spectrum.max()


def test_rough_chirp_capped_amplitude_is_the_same_float():
    # 2^min(0, x) is min(1, 2^x) for every finite x, without overflowing
    rng = np.random.default_rng(0)
    xs = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1023.9, -1074.0, -1080.0],
                         rng.uniform(-1100.0, 1000.0, 2000), rng.uniform(-1e-6, 1e-6, 200)])
    for x in xs.tolist():
        got, want = 2.0 ** min(0.0, x), min(1.0, 2.0 ** x)
        assert got == want and np.signbit(got) == np.signbit(want), x
    assert 2.0 ** min(0.0, 5000.0) == 1.0


def test_rough_chirp_refuses_a_negative_seed_and_an_overflowing_r(spec_mid, fam_mid):
    with pytest.raises(fk.ParameterError, match="seed=-1"):
        fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=-1, chi=fam_mid)
    with pytest.raises(fk.ParameterError, match="r=5000"):
        fk.preset_rough_chirp(spec_mid, 5000.0, 0.5, seed=0, chi=fam_mid)


def test_symbol_file_round_trip(tmp_path, spec_mid, fam_mid, rng):
    chirp = fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=4, chi=fam_mid)
    entries = []
    for k, a_k in chirp.bands.items():
        name = f"band_{k}.fiof"
        fk.write_fiof(tmp_path / name, a_k)
        entries.append({"k": k, "file": name})
    doc = {"kind": "separable", "r": 1.5, "delta": 0.5, "bands": entries}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(doc))
    loaded = fk.load_symbol(path)
    f = random_field(spec_mid, rng)
    out1 = fk.apply_separable(chirp, f)
    out2 = fk.apply_separable(loaded, f)
    assert np.abs(out1.samples - out2.samples).max() <= 1e-12 * np.abs(out1.samples).max()


def test_symbol_file_presets(tmp_path, spec_mid, rng):
    doc = {
        "kind": "analytic-preset",
        "preset": "multiplier_bessel",
        "params": {"m": 1.0},
        "grid": {"N": spec_mid.N, "L": spec_mid.L},
    }
    path = tmp_path / "bessel.json"
    path.write_text(json.dumps(doc))
    sym = fk.load_symbol(path)
    f = random_field(spec_mid, rng)
    out = fk.apply_dense(sym, f)
    ref = fk.bessel_potential(f, 1.0)
    assert np.abs(out.samples - ref.samples).max() <= 1e-10 * np.abs(ref.samples).max()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nope"}))
    with pytest.raises(fk.InvalidInputError):
        fk.load_symbol(bad)


def test_symbol_file_grid_must_be_integral(tmp_path):
    # the config's integer rule: an integral float reads as its integer, no value is truncated
    path = tmp_path / "identity.json"
    for N in (64.0, 64.5, "x"):
        path.write_text(json.dumps({"kind": "analytic-preset", "preset": "identity",
                                    "grid": {"N": N, "L": 1.0}}))
        if N == 64.0:
            assert fk.load_symbol(path).spec == fk.GridSpec(N=64, L=1.0)
        else:
            with pytest.raises(fk.InvalidInputError, match=f"symbol descriptor grid.N={N!r}"):
                fk.load_symbol(path)


@pytest.mark.parametrize("grid", [[64], 64, "64"], ids=["list", "int", "str"])
def test_symbol_file_grid_must_be_an_object(tmp_path, grid):
    doc = {"kind": "analytic-preset", "preset": "identity", "grid": grid}
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fk.InvalidInputError, match="symbol descriptor grid"):
        fk.load_symbol(path)


def test_dense_symbol_broadcasts_scalar_slice(spec_mid):
    out = fk.DenseSymbol(spec_mid, lambda eta: 2.0).eval([1.0, 0.0])
    assert out.dtype == complex
    assert out.shape == spec_mid.shape
    assert np.all(out == 2.0)


def _descriptor(tmp, doc):
    path = tmp / "sym.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda spec, fam, tmp: fk.DenseSymbol(spec, lambda eta: 1.0, r=0.0),
         fk.ParameterError, "r=0.0"),
        (lambda spec, fam, tmp: fk.DenseSymbol(spec, lambda eta: 1.0, delta=1.5),
         fk.ParameterError, "delta=1.5"),
        (lambda spec, fam, tmp: fk.DenseSymbol(spec, lambda eta: 1.0, m=np.nan),
         fk.ParameterError, "order m=nan must be finite"),
        (lambda spec, fam, tmp: fk.DenseSymbol(spec, lambda eta: np.ones((8, 8))).eval([1.0, 0.0]),
         fk.InvalidInputError, "slice shape"),
        (lambda spec, fam, tmp: fk.SeparableSymbol(
            spec, {fam.J_max + 1: fk.GridField(spec, np.ones(spec.shape))}, fam),
         fk.ParameterError, "outside family range"),
        (lambda spec, fam, tmp: fk.SeparableSymbol(
            spec, {1: fk.GridField(fk.GridSpec(N=16), np.ones((16, 16)))}, fam),
         fk.DimensionError, "grid differs"),
        (lambda spec, fam, tmp: fk.estimate_seminorms(fk.preset_identity(spec), 4, fam),
         fk.ParameterError, "alpha_max"),
        (lambda spec, fam, tmp: fk.paraproduct_hh(
            fk.GridField(spec, np.ones(spec.shape)),
            fk.GridField(fk.GridSpec(N=16), np.ones((16, 16))), fam),
         fk.DimensionError, "different grids"),
        (lambda spec, fam, tmp: fk.load_symbol(
            _descriptor(tmp, {"kind": "analytic-preset", "preset": "identity"})),
         fk.InvalidInputError, "lacks a grid"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(
            tmp, {"kind": "dense", "preset": "nope", "grid": {"N": 16, "L": 1.0}})),
         fk.InvalidInputError, "unknown preset 'nope'"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 2, "delta": 0.5},
            "detla": 0.5, "grid": {"N": 16, "L": 1.0}})),
         fk.InvalidInputError, r"unknown keys \['detla'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "separable", "bands": [], "preset": "identity", "grid": {"N": 16, "L": 1.0}})),
         fk.InvalidInputError, r"unknown keys \['preset'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "analytic-preset", "preset": "identity", "grid": {"N": 16, "L": 1.0, "M": 5}})),
         fk.InvalidInputError, r"unknown keys \['grid.M'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "separable", "grid": {"N": 16, "L": 1.0},
            "bands": [{"k": 1, "file": "absent.fiof"}, {"k": 2, "file": "absent.fiof", "w": 2}]})),
         fk.InvalidInputError, r"unknown keys \['bands\[1\].w'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "analytic-preset", "preset": "rough_chirp", "grid": {"N": 16, "L": 1.0},
            "params": {"r": 2, "delta": 0.5, "sede": 3}})),
         fk.InvalidInputError, r"unknown keys \['params.sede'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "analytic-preset", "preset": "identity", "grid": {"N": 16, "L": 1.0},
            "params": {"m": 1.0}})),
         fk.InvalidInputError, r"unknown keys \['params.m'\]"),
        (lambda spec, fam, tmp: fk.load_symbol(_descriptor(tmp, {
            "kind": "separable", "preset": "identity", "grid": {"N": 16, "L": 1.0, "M": 5},
            "bands": [{"k": 1, "file": "absent.fiof", "w": 2}]})),
         fk.InvalidInputError, r"unknown keys \['preset', 'grid.M', 'bands\[0\].w'\]"),
    ],
    ids=["dense-r", "dense-delta", "dense-m", "slice-shape", "separable-band-range",
         "separable-grid", "seminorms-alpha>3", "paraproduct-grid", "descriptor-without-grid",
         "unknown-preset", "descriptor-key", "separable-descriptor-key", "descriptor-grid-key",
         "descriptor-band-key", "descriptor-params-key", "identity-params-key",
         "descriptor-keys-on-three-levels"],
)
def test_symbols_input_checks(spec_mid, fam_mid, tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(spec_mid, fam_mid, tmp_path)


def test_separable_descriptor_without_grid(tmp_path):
    with pytest.raises(fk.InvalidInputError, match="lacks a grid"):
        fk.load_symbol(_descriptor(tmp_path, {"kind": "separable", "bands": []}))


@pytest.mark.parametrize("kwargs, match", [({"r": 0.0}, "r=0.0"), ({"delta": 1.5}, "delta=1.5")])
def test_separable_symbol_checks_its_class(spec_mid, fam_mid, kwargs, match):
    bands = {1: fk.GridField(spec_mid, np.ones(spec_mid.shape))}
    with pytest.raises(fk.ParameterError, match=match):
        fk.SeparableSymbol(spec_mid, bands, fam_mid, **kwargs)



def test_seminorms_refuse_a_negative_alpha_max(spec_mid, fam_mid):
    with pytest.raises(fk.ParameterError, match="alpha_max"):
        fk.estimate_seminorms(fk.preset_identity(spec_mid), -1, fam_mid)


def test_separable_descriptor_refuses_a_repeated_band(spec_mid, tmp_path):
    fk.write_fiof(tmp_path / "one.fiof", fk.GridField(spec_mid, np.ones(spec_mid.shape)))
    fk.write_fiof(tmp_path / "two.fiof", fk.GridField(spec_mid, 2.0 * np.ones(spec_mid.shape)))
    doc = {"kind": "separable", "bands": [{"k": 1, "file": "one.fiof"}, {"k": 1, "file": "two.fiof"}]}
    with pytest.raises(fk.InvalidInputError, match="band 1 twice"):
        fk.load_symbol(_descriptor(tmp_path, doc))


@pytest.mark.parametrize("doc", [
    {"kind": "separable", "bands": [{"k": True, "file": "one.fiof"}]},
    {"kind": "separable", "r": True, "bands": [{"k": 1, "file": "one.fiof"}]},
    {"kind": "analytic-preset", "preset": "identity", "r": True},
    {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": False}},
], ids=["band-k", "separable-r", "preset-r", "params-m"])
def test_descriptor_refuses_booleans(spec_mid, tmp_path, doc):
    # int(True) is 1 and float(True) 1.0: band k = true would be read as band 1
    fk.write_fiof(tmp_path / "one.fiof", fk.GridField(spec_mid, np.ones(spec_mid.shape)))
    doc = {"grid": {"N": spec_mid.N, "L": spec_mid.L}, **doc}
    with pytest.raises(fk.InvalidInputError, match="symbol descriptor .*=(True|False) is not"):
        fk.load_symbol(_descriptor(tmp_path, doc))


@pytest.mark.parametrize("doc, what", [
    ({"kind": "separable", "bands": [{"k": 1, "file": "one.fiof"}]}, "band 1's file grid"),
    ({"kind": "analytic-preset", "preset": "multiplication", "params": {"b_file": "one.fiof"}},
     "b_file's grid"),
], ids=["band-file", "b-file"])
def test_descriptor_grid_must_match_its_files(tmp_path, doc, what):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fk.write_fiof(tmp_path / "one.fiof", fk.GridField(spec, np.ones(spec.shape)))
    doc = {**doc, "grid": {"N": 64, "L": 1.0}}
    with pytest.raises(fk.InvalidInputError, match=f"N=64, L=1.0.* differs from {what} .*N=32"):
        fk.load_symbol(_descriptor(tmp_path, doc))
    doc["grid"] = {"N": 32, "L": 8 * np.pi}
    assert fk.load_symbol(_descriptor(tmp_path, doc)).spec == spec


@pytest.mark.parametrize("doc, what", [
    ({"kind": "separable", "bands": [{"k": 1, "file": "one.fiof"}]}, "band 1's file grid"),
    ({"kind": "analytic-preset", "preset": "multiplication", "params": {"b_file": "one.fiof"}},
     "b_file's grid"),
], ids=["band-file", "b-file"])
def test_undeclared_files_must_lie_on_the_given_grid(tmp_path, doc, what):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fk.write_fiof(tmp_path / "one.fiof", fk.GridField(spec, np.ones(spec.shape)))
    with pytest.raises(fk.InvalidInputError, match=f"the given grid .*N=64.* differs from {what} .*N=32"):
        fk.load_symbol(_descriptor(tmp_path, doc), spec=fk.GridSpec(N=64, L=8 * np.pi))
    assert fk.load_symbol(_descriptor(tmp_path, doc), spec=spec).spec == spec


def test_undeclared_band_files_must_share_the_first_file_grid(tmp_path):
    for name, N in (("a.fiof", 64), ("b.fiof", 32)):
        spec = fk.GridSpec(N=N, L=2 * np.pi)
        fk.write_fiof(tmp_path / name, fk.GridField(spec, np.ones(spec.shape)))
    doc = {"kind": "separable", "bands": [{"k": 0, "file": "a.fiof"}, {"k": 1, "file": "b.fiof"}]}
    with pytest.raises(fk.InvalidInputError,
                       match="sym.json: band 0's file grid .*N=64.* differs from band 1's file grid .*N=32"):
        fk.load_symbol(_descriptor(tmp_path, doc))
    doc["bands"][1]["file"] = "a.fiof"
    assert fk.load_symbol(_descriptor(tmp_path, doc)).spec.N == 64


def test_separable_symbol_makes_its_band_arrays_read_only(spec_fine, fam_fine, rng):
    # a band written after the first apply ran against the product-grid plan of the old
    # samples: the N=256 chirp's next apply was 18.7% off
    sym = fk.preset_rough_chirp(spec_fine, 2.0, 0.5, seed=0, chi=fam_fine)
    f = random_field(spec_fine, rng)
    first = fk.apply_symbol(sym, f).samples
    with pytest.raises(ValueError, match="read-only"):
        sym.bands[3].samples[...] = random_field(spec_fine, rng).samples
    assert fk.apply_symbol(sym, f).samples.tobytes() == first.tobytes()
    given = fk.GridField(spec_fine, np.ones(spec_fine.shape, dtype=complex))
    fk.SeparableSymbol(spec_fine, {0: given}, fam_fine)
    assert not given.samples.flags.writeable


def test_descriptor_grid_must_match_the_given_grid(tmp_path):
    doc = {"kind": "analytic-preset", "preset": "identity", "grid": {"N": 64, "L": 1.0}}
    with pytest.raises(fk.InvalidInputError, match="differs from the given grid .*N=32"):
        fk.load_symbol(_descriptor(tmp_path, doc), spec=fk.GridSpec(N=32, L=1.0))
    assert fk.load_symbol(_descriptor(tmp_path, doc), spec=fk.GridSpec(N=64, L=1.0)).spec.N == 64
    doc["grid"] = {"N": 30, "L": 1.0}
    with pytest.raises(fk.ParameterError, match="N=30"):
        fk.load_symbol(_descriptor(tmp_path, doc), spec=fk.GridSpec(N=32, L=1.0))
