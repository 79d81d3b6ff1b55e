import warnings

import numpy as np
import pytest

import fiokit as fk
from conftest import plane_wave, random_field


def test_partition_of_unity(fam64):
    total = sum(fam64.values)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_eps_out_of_range(spec64):
    with pytest.raises(fk.ParameterError):
        fk.build_lp_family(spec64, 0.3)
    with pytest.raises(fk.ParameterError):
        fk.build_lp_family(spec64, 0.0)


def test_band_supports_at_magnitude_three(fam64):
    # |xi| = 3 lies in supp psi_j exactly for j in {2, 3}
    for j in range(fam64.J_max + 1):
        val = float(fam64.band_profile(j, 3.0))
        if j in (2, 3):
            assert val > 0.0
        else:
            assert val == 0.0


def test_zero_frequency_is_low_cap_only(fam64):
    assert float(fam64.band_profile(0, 0.0)) == 1.0
    for j in range(1, fam64.J_max + 1):
        assert fam64.values[j][0, 0] == 0.0
    assert fam64.values[0][0, 0] == 1.0


def test_dilation_consistency(spec64, fam64):
    mags = fk.lattice(spec64).mags
    for j in range(2, fam64.J_max + 1):
        ref = fam64.band_profile(1, 2.0 ** (1 - j) * mags)
        assert np.abs(fam64.values[j] - ref).max() <= 1e-12


def test_values_in_unit_interval(fam64):
    for v in fam64.values:
        assert v.min() >= 0.0
        assert v.max() <= 1.0 + 1e-15


def test_lp_project_plane_wave(spec_fine, fam_fine):
    f = plane_wave(spec_fine, (3.0, 0.0))
    pieces = [fk.lp_project(f, j, fam_fine) for j in range(fam_fine.J_max + 1)]
    for j, piece in enumerate(pieces):
        mag = np.abs(piece.samples).max()
        if j in (2, 3):
            assert mag > 1e-3
        else:
            assert mag < 1e-13
    total = sum(p.samples for p in pieces)
    assert np.abs(total - f.samples).max() < 1e-12


def test_lp_project_constant(spec64, fam64):
    f = fk.GridField(spec64, np.full(spec64.shape, 2.0 + 1.0j))
    low = fk.lp_project(f, 0, fam64)
    assert np.abs(low.samples - f.samples).max() < 1e-12
    assert np.abs(fk.lp_project(f, 1, fam64).samples).max() < 1e-13


def test_lp_project_reconstruction(spec64, fam64, rng):
    f = random_field(spec64, rng)
    total = sum(fk.lp_project(f, j, fam64).samples for j in range(fam64.J_max + 1))
    assert np.abs(total - f.samples).max() / np.abs(f.samples).max() < 1e-12


def test_lp_project_band_range(spec64, fam64, rng):
    f = random_field(spec64, rng)
    with pytest.raises(fk.ParameterError):
        fk.lp_project(f, fam64.J_max + 1, fam64)
    with pytest.raises(fk.ParameterError):
        fk.lp_project(f, -1, fam64)


def test_square_function_zero(spec64, fam64):
    z = fk.GridField(spec64, np.zeros(spec64.shape))
    assert fk.square_function_norm(z, 0.5, 2.0, fam64) == 0.0


def test_square_function_single_band_plane_wave(spec_fine, fam_fine):
    # |xi0| on the band-k plateau: only one term survives
    k = 4
    xi0 = (2.0 ** (k - 1), 0.0)  # lattice point (spacing 1) on the chi_4 plateau
    f = plane_wave(spec_fine, xi0)
    for p in (2.0, 4.0):
        got = fk.square_function_norm(f, 0.5, p, fam_fine)
        want = 2.0 ** (k * 0.5) * spec_fine.L ** (2.0 / p)
        assert want / np.sqrt(2.0) * (1 - 1e-10) <= got <= want * (1 + 1e-10)


def test_square_function_l2_comparison(spec64, fam64, rng):
    spectrum = (rng.standard_normal(spec64.shape) + 1j * rng.standard_normal(spec64.shape))
    f = fk.inverse_transform(spectrum, spec64)
    ratio = fk.square_function_norm(f, 0.0, 2.0, fam64) / fk.lp_norm(f, 2.0)
    assert 1.0 / np.sqrt(2.0) - 1e-10 <= ratio <= 1.0 + 1e-10


def test_wide_cutoffs_fix_bands_exactly(spec64, fam64):
    for k in range(fam64.J_max + 1):
        prod = fam64.tilde_multiplier(k).values * fam64.values[k]
        assert np.array_equal(prod, fam64.values[k])


def test_q_caps_band_zero_exactly(fam64, frame64):
    assert np.array_equal(frame64.q_values * fam64.values[0], fam64.values[0])
    assert fk.dyadic.low_cutoff(1.9) == 1.0
    assert fk.dyadic.low_cutoff(4.1) == 0.0


def test_chi_family_window(fam64):
    # chi_1 vanishes outside [1/2, 2] (family hypothesis window [1/4, 4])
    chi = fam64
    assert float(chi.band_profile(1, 0.49)) == 0.0
    assert float(chi.band_profile(1, 2.01)) == 0.0
    assert float(chi.band_profile(1, 1.0)) > 0.0
    total = sum(chi.values)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_bands_equal_lp_project(spec64, fam64, rng):
    f = random_field(spec64, rng)
    every = list(fam64.bands(f))
    assert [j for j, _ in every] == list(range(fam64.J_max + 1))
    for j, samples in every:
        assert samples.tobytes() == fk.lp_project(f, j, fam64).samples.tobytes()


def test_square_function_norm_one_forward_fft(spec64, fam64, rng, monkeypatch):
    f = random_field(spec64, rng)
    calls = []
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    fk.square_function_norm(f, 0.5, 3.0, fam64)
    assert len(calls) == 1


def _assert_weights_match_profiles(fam, rho):
    want = np.array([fam.band_profile(j, rho) for j in range(fam.J_max + 1)])
    assert fam.band_weights(rho).tobytes() == want.tobytes()


def test_band_weights_equal_band_profile(fam64):
    eps = fam64.eps
    edges = [0.0, 1.0 - eps / 2.0]
    for j in range(fam64.J_max + 1):
        edges += [2.0**j * (1.0 - eps) / 2.0, 2.0**j * (1.0 + eps) / 2.0, 2.0**j * (2.0 - eps)]
    edges += [2.0**fam64.J_max * 1.5, 2.0 ** (fam64.J_max + 4)]
    for rho in edges:
        for r in (np.nextafter(rho, -np.inf), rho, np.nextafter(rho, np.inf)):
            if r >= 0.0:
                _assert_weights_match_profiles(fam64, r)
    for rho in np.linspace(0.0, 2.0 ** (fam64.J_max + 1), 1001):
        _assert_weights_match_profiles(fam64, rho)


def test_tilde_multiplier_rejects_band_outside_range(fam64):
    for k in (-1, fam64.J_max + 1):
        with pytest.raises(fk.ParameterError, match="outside 0.."):
            fam64.tilde_multiplier(k)


def test_square_function_and_l2_inner_overflow_to_inf_with_no_warning():
    # |f|^2 of a 1e160 field overflows; lp_norm already returns inf here quietly
    spec = fk.GridSpec(N=32, L=8.0 * np.pi)
    f = fk.GridField(spec, np.full(spec.shape, 1e160))
    fam = fk.build_lp_family(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fk.square_function_norm(f, 0.0, 2.0, fam) == np.inf
        assert fk.l2_inner(f, f).real == np.inf


def test_square_function_overflowing_weight_skips_zero_bands_with_no_warning():
    # 4^{ks} overflows at s = 400 from k = 2 on; ones live in band 0 alone, and a
    # plane wave at |xi| = 1.5 reaches band 2, where the overflow makes the norm inf
    spec = fk.GridSpec(N=32, L=8.0 * np.pi)
    fam = fk.build_lp_family(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ones = fk.GridField(spec, np.ones(spec.shape))
        assert fk.square_function_norm(ones, 400.0, 4.0, fam) == 5.013256549262001
        assert fk.square_function_norm(plane_wave(spec, (1.5, 0.0)), 400.0, 4.0, fam) == np.inf


def test_family_values_are_read_only(spec64):
    fam = fk.LittlewoodPaleyFamily(spec64)
    for v in fam.values:
        with pytest.raises(ValueError, match="read-only"):
            v *= 2.0
    assert np.abs(sum(fam.values) - 1.0).max() <= 1e-12
