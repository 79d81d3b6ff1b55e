import warnings
import weakref

import numpy as np
import pytest
import scipy.fft

import fiokit as fk
from conftest import plane_wave, random_field, refusal_tests


def test_grid_spec_accepts_numpy_integers():
    assert fk.GridSpec(n=np.int64(2), N=np.int32(64), L=np.float32(1.0)) == fk.GridSpec(N=64, L=1.0)


@pytest.mark.parametrize("L", [1e-100, 1e100])
def test_grid_spec_keeps_a_period_whose_powers_are_finite(L):
    spec = fk.GridSpec(N=16, L=L)
    f = fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        back = fk.inverse_transform(fk.forward_transform(f), spec)
        assert np.isfinite(fk.lattice(spec).mags).all()
    assert np.abs(back.samples - f.samples).max() <= 1e-12


def test_constant_spectrum_is_delta_at_zero(spec64):
    f = fk.GridField(spec64, np.ones(spec64.shape))
    spectrum = fk.forward_transform(f)
    assert abs(spectrum[0, 0] - spec64.L**2) < 1e-9 * spec64.L**2
    rest = spectrum.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-9 * spec64.L**2


def test_plane_wave_spectrum_single_entry(spec64):
    h = spec64.xi_spacing
    xi0 = (5 * h, -3 * h)
    f = plane_wave(spec64, xi0)
    spectrum = fk.forward_transform(f)
    assert abs(spectrum[5, -3] - spec64.L**2) < 1e-9 * spec64.L**2
    rest = spectrum.copy()
    rest[5, -3] = 0.0
    assert np.abs(rest).max() < 1e-9 * spec64.L**2


def test_round_trip_identity(spec64, rng):
    f = random_field(spec64, rng)
    back = fk.inverse_transform(fk.forward_transform(f), spec64)
    rel = np.linalg.norm(back.samples - f.samples) / np.linalg.norm(f.samples)
    assert rel < 1e-12


def test_delta_spectrum_gives_plane_wave(spec64):
    spectrum = np.zeros(spec64.shape, dtype=complex)
    spectrum[2, 7] = spec64.L**2
    f = fk.inverse_transform(spectrum, spec64)
    h = spec64.xi_spacing
    ref = plane_wave(spec64, (2 * h, 7 * h))
    assert np.abs(f.samples - ref.samples).max() < 1e-12


def test_field_arithmetic_is_the_sample_arithmetic(spec64, rng):
    f, g = random_field(spec64, rng), random_field(spec64, rng)
    for got, want in [(f + g, f.samples + g.samples), (f - g, f.samples - g.samples),
                      (2 * f, 2 * f.samples), (f * 2, f.samples * 2)]:
        assert got.spec == spec64 and np.array_equal(got.samples, want)
    other = random_field(fk.GridSpec(N=32), rng)
    with pytest.raises(fk.DimensionError):
        f + other
    with pytest.raises(fk.DimensionError):
        f - other


def test_identity_multiplier(spec64, rng):
    f = random_field(spec64, rng)
    m = fk.SpectralMultiplier(spec64, np.ones(spec64.shape))
    g = fk.apply_multiplier(f, m)
    rel = np.abs(g.samples - f.samples).max() / np.abs(f.samples).max()
    assert rel < 1e-13


def test_indicator_multiplier_fixes_plane_wave(spec64):
    h = spec64.xi_spacing
    f = plane_wave(spec64, (4 * h, 0.0))
    values = np.zeros(spec64.shape)
    values[4, 0] = 1.0
    g = fk.apply_multiplier(f, fk.SpectralMultiplier(spec64, values))
    assert np.abs(g.samples - f.samples).max() < 1e-12


def test_multiplier_composition_law(spec64, rng):
    f = random_field(spec64, rng)
    m1 = fk.SpectralMultiplier(spec64, rng.uniform(-1, 1, spec64.shape))
    m2 = fk.SpectralMultiplier(spec64, rng.uniform(-1, 1, spec64.shape))
    a = fk.apply_multiplier(fk.apply_multiplier(f, m1), m2)
    b = fk.apply_multiplier(f, fk.SpectralMultiplier(spec64, m1.values * m2.values))
    c = fk.apply_multiplier(fk.apply_multiplier(f, m2), m1)
    scale = np.abs(f.samples).max()
    assert np.abs(a.samples - b.samples).max() / scale < 1e-12
    assert np.abs(a.samples - c.samples).max() / scale < 1e-12


def test_bessel_identity_and_eigenfunction(spec64, rng):
    f = random_field(spec64, rng)
    g = fk.bessel_potential(f, 0.0)
    assert np.abs(g.samples - f.samples).max() / np.abs(f.samples).max() < 1e-13
    h = spec64.xi_spacing
    xi0 = (6 * h, 2 * h)
    pw = plane_wave(spec64, xi0)
    lam = (1.0 + xi0[0] ** 2 + xi0[1] ** 2) ** 0.75
    out = fk.bessel_potential(pw, 1.5)
    assert np.abs(out.samples - lam * pw.samples).max() < 1e-11 * lam


def test_bessel_s2_matches_spectral_laplacian(spec64, rng):
    f = random_field(spec64, rng)
    lap = fk.SpectralMultiplier(spec64, -fk.lattice(spec64).mags ** 2)
    oracle = fk.GridField(
        spec64, f.samples - fk.apply_multiplier(f, lap).samples
    )
    out = fk.bessel_potential(f, 2.0)
    rel = np.abs(out.samples - oracle.samples).max() / np.abs(oracle.samples).max()
    assert rel < 1e-12


def test_bessel_group_law(spec64, rng):
    f = random_field(spec64, rng)
    a = fk.bessel_potential(fk.bessel_potential(f, 2.5), -1.5)
    b = fk.bessel_potential(f, 1.0)
    assert np.abs(a.samples - b.samples).max() / np.abs(b.samples).max() < 1e-11
    back = fk.bessel_potential(fk.bessel_potential(f, 3.0), -3.0)
    assert np.abs(back.samples - f.samples).max() / np.abs(f.samples).max() < 1e-11


def test_lp_norm_constant_and_zero(spec64):
    c = 2.5 - 1.0j
    f = fk.GridField(spec64, np.full(spec64.shape, c))
    for p in (1.5, 2.0, 4.0):
        assert abs(fk.lp_norm(f, p) - abs(c) * spec64.L ** (2.0 / p)) < 1e-10
    z = fk.GridField(spec64, np.zeros(spec64.shape))
    assert fk.lp_norm(z, 2.0) == 0.0


def test_lp_norm_parseval(spec64, rng):
    f = random_field(spec64, rng)
    spectrum = fk.forward_transform(f)
    oracle = np.sqrt((np.abs(spectrum) ** 2).sum() / spec64.L**2)
    assert abs(fk.lp_norm(f, 2.0) - oracle) / oracle < 1e-12


def test_lp_norm_range_and_homogeneity(spec64, rng):
    f = random_field(spec64, rng)
    with pytest.raises(fk.ParameterError):
        fk.lp_norm(f, 1.0)
    with pytest.raises(fk.ParameterError):
        fk.lp_norm(f, np.inf)
    assert abs(fk.lp_norm(3.0 * f, 2.5) - 3.0 * fk.lp_norm(f, 2.5)) < 1e-10


def test_lp_norm_log_convexity(spec64, rng):
    f = random_field(spec64, rng)
    p0, p1, theta = 2.0, 4.0, 0.5
    p = 1.0 / ((1 - theta) / p0 + theta / p1)
    lhs = fk.lp_norm(f, p)
    rhs = fk.lp_norm(f, p0) ** (1 - theta) * fk.lp_norm(f, p1) ** theta
    assert lhs <= rhs * (1 + 1e-12)


def test_fiof_round_trip(tmp_path, spec64, rng):
    f = random_field(spec64, rng)
    path = tmp_path / "field.fiof"
    fk.write_fiof(path, f)
    g = fk.read_fiof(path)
    assert g.spec == spec64
    assert np.array_equal(g.samples, f.samples)


def test_an_overflowing_transform_is_quiet():
    # numpy.fft warns on inf and nan; grid's transforms leave the report to the refusal
    # that follows (a non-finite spectrum: test_non_finite_spectrum_is_refused_without_a_warning)
    spec = fk.GridSpec(N=16, L=2 * np.pi)
    huge = fk.GridField(spec, np.full(spec.shape, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(fk.forward_transform(huge)).all()


def test_only_grid_calls_numpy_fft(fft_calls):
    # one module owns the transform convention: every numpy.fft call of the
    # operator cores, the paraproducts, the frame and the dyadic norms is grid's
    spec = fk.GridSpec(N=64, L=2 * np.pi)
    fam = fk.build_lp_family(spec)
    assert fam.J_max == 7  # hl has windows for k <= 1 and lh for k >= 6
    frame = fk.ParabolicFrame(spec)
    chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=1, chi=fam)
    rng = np.random.default_rng(2)
    b, f = random_field(spec, rng), random_field(spec, rng)
    fk.apply_separable(chirp, f)
    fk.apply_separable_adjoint(chirp, f)
    fk.certified_l2_bound(chirp, frame)
    for piece in (fk.paraproduct_hh, fk.paraproduct_hl, fk.paraproduct_lh):
        piece(b, f, fam)
    fk.hpfio_norm(f, 0.0, 4.0 / 3.0, frame)
    fk.frame_synthesize(fk.frame_analyze(f, frame), frame)
    fk.square_function_norm(f, 0.5, 4.0, fam)
    fk.zygmund_norm(f, 1.5, fam)
    assert fft_calls
    assert {call.module for call in fft_calls} == {"fiokit.grid"}


def test_band_sum_releases_each_term_before_the_next():
    # a paraproduct's term generator builds fresh grids per term; the band sum
    # must hold none of a finished term's while the generator builds the next
    from fiokit.grid import _band_sum

    alive = []

    def fresh(k):
        term = (np.full((8, 8), float(k)), np.full((8, 8), 2.0))
        alive[:] = [weakref.ref(a) for a in term]
        return term

    def terms():
        for k in range(3):
            assert all(ref() is None for ref in alive), "a finished term is still held"
            yield fresh(k)

    x = np.arange(64, dtype=complex).reshape(8, 8)
    out = _band_sum(terms(), x, 1.0)
    want = sum(2.0 * scipy.fft.ifftn(k * x, norm="forward") for k in range(3))
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_lattice_arrays_are_read_only():
    # lattice(spec) is cached process-wide: an in-place write into its mags moved every
    # family built later on that grid
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    lat = fk.FrequencyLattice(spec)
    for a in (lat.axis, *lat.mesh, lat.mags):
        with pytest.raises(ValueError, match="read-only"):
            a **= 2
    assert not fk.lattice(spec).mags.flags.writeable
    assert lat.mags.tobytes() == fk.FrequencyLattice(spec).mags.tobytes()


globals().update(refusal_tests(__name__))
