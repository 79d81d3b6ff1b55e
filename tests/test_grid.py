import struct
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft

import fiokit as fk
from conftest import plane_wave, random_field, write_fiof_n3


@pytest.mark.parametrize("kwargs", [{"N": 64.0}, {"n": 2.0}, {"n": True}, {"L": "1"}, {"L": 1j}])
def test_grid_spec_rejects_wrong_types(kwargs):
    with pytest.raises(fk.ParameterError):
        fk.GridSpec(**kwargs)


def test_grid_spec_accepts_numpy_integers():
    assert fk.GridSpec(n=np.int64(2), N=np.int32(64), L=np.float32(1.0)) == fk.GridSpec(N=64, L=1.0)


def test_grid_spec_validation():
    with pytest.raises(fk.ParameterError):
        fk.GridSpec(N=48)
    with pytest.raises(fk.ParameterError):
        fk.GridSpec(N=8)
    with pytest.raises(fk.ParameterError):
        fk.GridSpec(L=-1.0)
    with pytest.raises(fk.ParameterError):
        fk.GridSpec(n=0)


@pytest.mark.parametrize("L", [1e-200, 1e200, 1e-160, 1e160, 5e-324, np.inf, np.nan, 0.0,
                               pytest.param(np.float64(1e200), id="float64-1e+200")])
def test_grid_spec_refuses_a_period_whose_powers_are_not_finite_and_nonzero(L):
    # L^-n, L^n, dx^n or the squared Nyquist corner |xi|^2 overflows or vanishes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(fk.ParameterError, match=r"finite and > 0"):
            fk.GridSpec(N=16, L=L)


@pytest.mark.parametrize("L", [1e-100, 1e100])
def test_grid_spec_keeps_a_period_whose_powers_are_finite(L):
    spec = fk.GridSpec(N=16, L=L)
    f = fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        back = fk.inverse_transform(fk.forward_transform(f), spec)
        assert np.isfinite(fk.lattice(spec).mags).all()
    assert np.abs(back.samples - f.samples).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_grid_spec_is_planar(n):
    with pytest.raises(fk.ParameterError, match=f"dimension n={n} must be 2"):
        fk.GridSpec(n=n)


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


def test_non_finite_rejected(spec64):
    bad = np.ones(spec64.shape)
    bad[0, 0] = np.nan
    with pytest.raises(fk.InvalidInputError):
        fk.GridField(spec64, bad)
    with pytest.raises(fk.InvalidInputError):
        fk.inverse_transform(bad, spec64)


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


def test_spec_mismatch_raises(spec64, rng):
    f = random_field(spec64, rng)
    other = fk.GridSpec(N=32)
    m = fk.SpectralMultiplier(other, np.ones(other.shape))
    with pytest.raises(fk.DimensionError):
        fk.apply_multiplier(f, m)


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


def test_fiof_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fiof"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(fk.InvalidInputError):
        fk.read_fiof(path)


def test_fiof_rejects_short_header(tmp_path):
    path = tmp_path / "short.fiof"
    path.write_bytes(b"FIOF" + b"\x01\x00\x00\x00")
    with pytest.raises(fk.InvalidInputError, match="bad header"):
        fk.read_fiof(path)


@pytest.mark.parametrize("n, N, L", [(2, 3, 1.0), (2, 64, float("nan"))])
def test_fiof_rejects_invalid_grid_header(tmp_path, n, N, L):
    path = tmp_path / "bad_grid.fiof"
    path.write_bytes(b"FIOF" + struct.pack("<III d", 1, n, N, L))
    with pytest.raises(fk.InvalidInputError, match="bad header"):
        fk.read_fiof(path)


def test_fiof_rejects_huge_dimension_before_sizing(tmp_path):
    # N**n with n = 2**32 - 1 would be an integer of about 2 GB
    path = tmp_path / "huge_n.fiof"
    path.write_bytes(b"FIOF" + struct.pack("<III d", 1, 2**32 - 1, 16, 1.0))
    with pytest.raises(fk.InvalidInputError, match="bad header"):
        fk.read_fiof(path)


def test_fiof_rejects_three_dimensional_field(tmp_path):
    path = write_fiof_n3(tmp_path / "n3.fiof")
    with pytest.raises(fk.InvalidInputError, match="bad header: dimension n=3"):
        fk.read_fiof(path)


def _fiof_with_payload(tmp_path, spec, payload: bytes):
    path = tmp_path / "payload.fiof"
    path.write_bytes(b"FIOF" + struct.pack("<III d", 1, spec.n, spec.N, spec.L) + payload)
    return path


def test_fiof_rejects_payload_cut_mid_sample(tmp_path, spec64):
    whole = bytes(16 * spec64.N**2)
    path = _fiof_with_payload(tmp_path, spec64, whole[:-5])
    with pytest.raises(fk.InvalidInputError, match="truncated payload"):
        fk.read_fiof(path)


def test_fiof_rejects_extra_samples(tmp_path, spec64):
    path = _fiof_with_payload(tmp_path, spec64, bytes(16 * (spec64.N**2 + 2)))
    with pytest.raises(fk.InvalidInputError, match="bytes after the"):
        fk.read_fiof(path)


def test_fiof_huge_grid_header_reads_nothing_large(tmp_path):
    # 2**40 samples would be 16 TiB; the short file is rejected before any read
    spec = fk.GridSpec(N=2**20, L=1.0)
    path = _fiof_with_payload(tmp_path, spec, bytes(32))
    with pytest.raises(fk.InvalidInputError, match="truncated payload"):
        fk.read_fiof(path)


SPEC16 = fk.GridSpec(N=16, L=1.0)


def _fiof_with_version(path, version):
    fk.write_fiof(path, fk.GridField(SPEC16, np.zeros(SPEC16.shape)))
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", version)
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda tmp: fk.GridField(SPEC16, np.zeros((8, 8))), fk.InvalidInputError, "sample shape"),
        (lambda tmp: fk.SpectralMultiplier(SPEC16, np.ones((8, 8))), fk.InvalidInputError,
         "multiplier shape"),
        (lambda tmp: fk.SpectralMultiplier(SPEC16, np.full(SPEC16.shape, np.inf)),
         fk.InvalidInputError, "non-finite"),
        (lambda tmp: fk.inverse_transform(np.zeros((8, 8)), SPEC16), fk.InvalidInputError,
         "spectrum shape"),
        (lambda tmp: fk.bessel_potential(fk.GridField(SPEC16, np.ones(SPEC16.shape)), np.nan),
         fk.ParameterError, "must be finite"),
        (lambda tmp: fk.read_fiof(_fiof_with_version(tmp / "v2.fiof", 2)), fk.InvalidInputError,
         "unsupported FIOF version 2"),
    ],
    ids=["field-shape", "multiplier-shape", "multiplier-non-finite", "inverse-shape",
         "bessel-non-finite-s", "fiof-version"],
)
def test_grid_input_checks(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, np.inf), np.nan],
                         ids=["inf", "-inf", "inf-inf", "nan"])
def test_non_finite_spectrum_is_refused_without_a_warning(bad):
    # numpy.fft warns on inf and nan input; grid's transforms stay quiet and
    # the refusal that follows is the only report
    spec = fk.GridSpec(N=16, L=2 * np.pi)
    spectrum = np.ones(spec.shape, dtype=complex)
    spectrum[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fk.InvalidInputError, match="non-finite"):
            fk.inverse_transform(spectrum, spec)
        huge = fk.GridField(spec, np.full(spec.shape, 1e308))
        assert not np.isfinite(fk.forward_transform(huge)).all()


def test_only_grid_calls_numpy_fft(monkeypatch):
    # one module owns the transform convention: every numpy.fft call of the
    # operator cores, the paraproducts, the frame and the dyadic norms is grid's
    spec = fk.GridSpec(N=64, L=2 * np.pi)
    fam = fk.build_lp_family(spec)
    assert fam.J_max == 7  # hl has windows for k <= 1 and lh for k >= 6
    frame = fk.ParabolicFrame(spec)
    chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=1, chi=fam)
    rng = np.random.default_rng(2)
    b, f = random_field(spec, rng), random_field(spec, rng)
    callers = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fftn", "ifftn", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name)))
    fk.apply_separable(chirp, f)
    fk.apply_separable_adjoint(chirp, f)
    fk.certified_l2_bound(chirp, frame)
    for piece in (fk.paraproduct_hh, fk.paraproduct_hl, fk.paraproduct_lh):
        piece(b, f, fam)
    fk.hpfio_norm(f, 0.0, 4.0 / 3.0, frame)
    fk.frame_synthesize(fk.frame_analyze(f, frame), frame)
    fk.square_function_norm(f, 0.5, 4.0, fam)
    fk.zygmund_norm(f, 1.5, fam)
    assert callers
    assert set(callers) == {"fiokit.grid"}


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
