import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fiokit as fk
from conftest import hpfio_by_definition, plane_wave, random_field


def test_sobolev_s_values():
    assert fk.sobolev_s(2.0, 2) == 0.0
    assert fk.sobolev_s(1.0, 2) == 0.25
    assert fk.sobolev_s(4.0, 2) == 0.125
    assert fk.sobolev_s(4.0 / 3.0, 2) == pytest.approx(0.125, abs=1e-15)


def test_classical_norm_s_zero(spec64, rng):
    f = random_field(spec64, rng)
    for p in (1.5, 2.0, 3.0):
        assert fk.classical_norm(f, 0.0, p) == pytest.approx(fk.lp_norm(f, p), rel=1e-13)


def test_classical_norm_plane_wave(spec64):
    h = spec64.xi_spacing
    xi0 = (8 * h, 4 * h)
    f = plane_wave(spec64, xi0)
    s, p = 1.5, 4.0
    want = (1.0 + xi0[0] ** 2 + xi0[1] ** 2) ** (s / 2.0) * spec64.L ** (2.0 / p)
    assert fk.classical_norm(f, s, p) == pytest.approx(want, rel=1e-11)


def test_classical_norm_spectral_oracle(spec64, rng):
    f = random_field(spec64, rng)
    s = 0.7
    spectrum = fk.forward_transform(f)
    weights = (1.0 + fk.lattice(spec64).mags ** 2) ** s
    oracle = np.sqrt((weights * np.abs(spectrum) ** 2).sum() / spec64.L**2)
    assert fk.classical_norm(f, s, 2.0) == pytest.approx(oracle, rel=1e-12)


def test_classical_norm_monotone_in_s(spec64, rng):
    f = random_field(spec64, rng)
    assert fk.classical_norm(f, 0.5, 2.0) <= fk.classical_norm(f, 1.5, 2.0) * (1 + 1e-12)


def test_zygmund_constant(spec64):
    f = fk.GridField(spec64, np.full(spec64.shape, -3.0))
    assert fk.zygmund_norm(f, 0.8) == pytest.approx(3.0, rel=1e-12)


def test_zygmund_single_band_plane_wave(spec_fine, fam_fine):
    r = 0.9
    for j in (3, 5):
        f = plane_wave(spec_fine, (2.0 ** (j - 1), 0.0))
        val = fk.zygmund_norm(f, r, fam_fine)
        assert 2.0 ** ((j - 1) * r) * (1 - 1e-10) <= val <= 2.0 ** (j * r) * (1 + 1e-10)


def test_zygmund_homogeneity(spec64, rng):
    f = random_field(spec64, rng)
    assert fk.zygmund_norm(2.0 * f, 1.1) == pytest.approx(2.0 * fk.zygmund_norm(f, 1.1), rel=1e-12)


def test_zygmund_requires_positive_r(spec64, rng):
    with pytest.raises(fk.ParameterError):
        fk.zygmund_norm(random_field(spec64, rng), 0.0)


@pytest.mark.parametrize("r", [np.inf, np.nan, -np.inf])
def test_zygmund_refuses_a_non_finite_r(r):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    with pytest.raises(fk.ParameterError, match="positive and finite"):
        fk.zygmund_norm(fk.GridField(spec, np.ones(spec.shape)), r)


def test_zygmund_refuses_an_r_whose_top_weight_overflows():
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fam = fk.build_lp_family(spec)
    ones = fk.GridField(spec, np.ones(spec.shape))
    limit = 1024 / fam.J_max
    for r in (limit, 1000.0, 1e300):
        with pytest.raises(fk.ParameterError, match=f"below {limit:g}"):
            fk.zygmund_norm(ones, r, fam)
        with pytest.raises(fk.ParameterError, match=f"below {limit:g}"):
            fk.zygmund_norm(ones, r)
    # just below the limit 2^(J_max r) is finite, and the constant's norm is 1
    r = limit
    while fam.J_max * r >= 1024:
        r = float(np.nextafter(r, 0.0))
    assert fk.zygmund_norm(ones, r, fam) == 1.0
    assert fk.zygmund_norm(ones, 1.5, fam) == 1.0


def test_hpfio_zero(spec64, frame64):
    z = fk.GridField(spec64, np.zeros(spec64.shape))
    assert fk.hpfio_norm(z, 0.0, 2.0, frame64) == 0.0


def test_hpfio_low_pass_equals_lp(spec64, frame64, rng):
    f = random_field(spec64, rng)
    mask = np.where(fk.lattice(spec64).mags < 0.12, 1.0, 0.0)
    low = fk.inverse_transform(mask * fk.forward_transform(f), spec64)
    for p in (2.0, 4.0):
        got = fk.hpfio_norm(low, 0.3, p, frame64)
        assert got == pytest.approx(fk.lp_norm(low, p), rel=1e-12)


def test_hpfio_l2_comparability(spec64, frame64, rng):
    f = random_field(spec64, rng)
    ratio = fk.hpfio_norm(f, 0.0, 2.0, frame64) / fk.lp_norm(f, 2.0)
    assert 0.05 < ratio < 20.0


def test_hpfio_is_a_norm(spec64, frame64, rng):
    f = random_field(spec64, rng)
    g = random_field(spec64, rng)
    p, s = 4.0, 0.25
    nf = fk.hpfio_norm(f, s, p, frame64)
    ng = fk.hpfio_norm(g, s, p, frame64)
    nfg = fk.hpfio_norm(f + g, s, p, frame64)
    assert nfg <= (nf + ng) * (1 + 1e-10)
    assert fk.hpfio_norm(2.5 * f, s, p, frame64) == pytest.approx(2.5 * nf, rel=1e-10)


def test_hpfio_parameter_validation(spec64, frame64, rng):
    f = random_field(spec64, rng)
    with pytest.raises(fk.ParameterError):
        fk.hpfio_norm(f, 0.0, 1.0, frame64)
    other = fk.GridSpec(N=32)
    with pytest.raises(fk.DimensionError):
        fk.hpfio_norm(fk.GridField(other, np.zeros(other.shape)), 0.0, 2.0, frame64)


@pytest.fixture(scope="module")
def frame128_2pi():
    return fk.ParabolicFrame(fk.GridSpec(N=128, L=2.0 * np.pi))


def _exact_plane_wave(spec):
    """exp(i xi0.x) at xi0 = (N/4, N/4) lattice steps: its samples are
    exact fourth roots of unity, so its spectrum is exactly one-hot."""
    k = np.arange(spec.N)
    roots = np.array([1.0, 1j, -1.0, -1j])
    return fk.GridField(spec, roots[(k[:, None] + k[None, :]) % 4])


HPFIO_PS = (1.1, 4.0 / 3.0, 2.0, 3.0, 4.0)
HPFIO_SS = (-0.4, 0.0, 0.7)


@pytest.mark.parametrize("frame_name", ["frame64", "frame128_2pi"])
def test_hpfio_matches_definition(frame_name, request, rng):
    frame = request.getfixturevalue(frame_name)
    f = random_field(frame.spec, rng)
    for p in HPFIO_PS:
        for s in HPFIO_SS:
            want = hpfio_by_definition(f, s, p, frame)
            assert fk.hpfio_norm(f, s, p, frame) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("frame_name", ["frame64", "frame128_2pi"])
def test_hpfio_plane_wave_matches_definition(frame_name, request):
    frame = request.getfixturevalue(frame_name)
    f = _exact_plane_wave(frame.spec)
    flat = fk.forward_transform(f).ravel()
    assert np.count_nonzero(flat) == 1
    silent = sum(not np.any(flat[frame.sparse(l)[0]]) for l in range(frame.n_directions))
    assert silent > frame.n_directions // 2
    for p in HPFIO_PS:
        for s in HPFIO_SS:
            want = hpfio_by_definition(f, s, p, frame)
            assert want > 0.0
            assert fk.hpfio_norm(f, s, p, frame) == pytest.approx(want, rel=1e-12)


def test_touched_lines_cover_support_on_both_axes(frame64, frame128_2pi):
    for frame in (frame64, frame128_2pi):
        N = frame.spec.N
        axes = set()
        for l in range(frame.n_directions):
            idx, _ = frame.sparse(l)
            axis, lines = frame.touched_lines(l)
            rows, cols = np.unique(idx // N), np.unique(idx % N)
            assert np.array_equal(lines, rows if axis == 0 else cols)
            assert lines.size == min(rows.size, cols.size)
            axes.add(axis)
        assert axes == {0, 1}


def test_hpfio_is_deterministic(frame128_2pi, rng):
    f = random_field(frame128_2pi.spec, rng)
    for p in (4.0 / 3.0, 2.0, 4.0):
        first = fk.hpfio_norm(f, 0.3, p, frame128_2pi)
        assert all(fk.hpfio_norm(f, 0.3, p, frame128_2pi) == first for _ in range(3))


def test_hpfio_concurrent_callers_agree(frame64, rng):
    """Callers on more threads than cores, with frequent thread switches,
    get the single-caller result bit for bit."""
    f = random_field(frame64.spec, rng)
    want = {p: fk.hpfio_norm(f, 0.3, p, frame64) for p in (1.5, 2.0, 4.0)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [(p, pool.submit(fk.hpfio_norm, f, 0.3, p, frame64))
                       for _ in range(4) for p in want]
            got = [(p, fut.result(timeout=120)) for p, fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(value == want[p] for p, value in got)


def test_direction_powers_of_many_workers_share_one_array(frame64, rng):
    """Workers on more threads than cores, with frequent thread switches,
    write their own directions' powers into one shared array; none is lost."""
    spec, M, W = frame64.spec, frame64.n_directions, 8
    spectrum = fk.forward_transform(random_field(spec, rng))
    work = np.empty((W, 2) + spec.shape, dtype=complex)
    want = np.zeros(M)
    fk.norms._direction_powers(frame64.parts(spectrum, range(M), work[0]), 3.0, spec, want)
    assert np.all(want > 0)
    powers = np.zeros(M)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=W) as pool:
            futures = [pool.submit(fk.norms._direction_powers,
                                   frame64.parts(spectrum, range(w, M, W), work[w]), 3.0, spec, powers)
                       for w in range(W)]
            for fut in futures:
                fut.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert powers.tobytes() == want.tobytes()


def test_hpfio_p2_visits_no_direction(frame64, rng, monkeypatch):
    f = random_field(frame64.spec, rng)
    want = hpfio_by_definition(f, 0.3, 2.0, frame64)

    def refuse(*args, **kwargs):
        raise AssertionError("p = 2 must not run the per-direction path")

    monkeypatch.setattr(fk.norms, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(fk.ParabolicFrame, "sparse", refuse)
    monkeypatch.setattr(fk.ParabolicFrame, "touched_lines", refuse)
    assert fk.hpfio_norm(f, 0.3, 2.0, frame64) == pytest.approx(want, rel=1e-12)


def test_budget_worked_examples():
    b = fk.budget(2.0, 0.0, 4.0, 2)
    assert b.tau == 0.0
    assert b.gamma == 0.625
    assert b.sigma == 0.0

    b2 = fk.budget(1.3, 0.25, 2.0, 2)
    assert b2.tau == 0.0 and b2.sigma == 0.0 and b2.rho == 0.0

    b3 = fk.budget(0.5, 0.5, 4.0, 2)
    assert b3.tau == pytest.approx(0.125, abs=1e-15)
    assert b3.gamma == pytest.approx(0.75, abs=1e-15)
    assert b3.rho == pytest.approx(0.125, abs=1e-15)


def test_budget_interval_and_admissible_point():
    b = fk.budget(2.0, 0.5, 4.0, 2)
    lo, hi = b.s_interval
    assert lo == pytest.approx(-(1 - 0.625) * 2.0 - 0.125)
    assert hi == pytest.approx(2.0 - 0.125)
    assert lo < b.admissible_s() < hi


def test_budget_tau_monotone_and_continuous_in_r():
    taus = [fk.budget(r, 0.0, 4.0, 2).tau for r in (0.2, 0.5, 0.8, 0.999999)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))
    assert taus[-1] < 1e-5
    assert fk.budget(1.0, 0.0, 4.0, 2, eps_slack=0.01).tau == 0.01
    assert fk.budget(1.001, 0.0, 4.0, 2).tau == 0.0


def test_budget_gamma_range():
    for r in (0.3, 1.0, 2.5):
        for p in (1.2, 2.0, 7.0):
            g = fk.budget(r, 0.25, p, 2).gamma
            assert 0.5 <= g < 1.0


def test_budget_validation():
    with pytest.raises(fk.ParameterError):
        fk.budget(2.0, 0.6, 4.0, 2)
    with pytest.raises(fk.ParameterError):
        fk.budget(-1.0, 0.0, 4.0, 2)
    with pytest.raises(fk.ParameterError):
        fk.budget(2.0, 0.0, 1.0, 2)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: fk.sobolev_s(0.5, 2), "out of range"),
        (lambda: fk.budget(2.0, 0.5, 4.0, 2, eps_slack=0.0), "eps_slack"),
    ],
    ids=["sobolev-s-p", "budget-eps-slack"],
)
def test_norms_input_checks(call, match):
    with pytest.raises(fk.ParameterError, match=match):
        call()


@pytest.mark.parametrize("p", [2.0, 4.0], ids=["parseval", "directions"])
@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_hpfio_norm_refuses_a_non_finite_s(frame64, monkeypatch, p, s):
    f = fk.GridField(frame64.spec, np.ones(frame64.spec.shape))

    def refuse(*args):
        raise AssertionError("transform before the check")

    monkeypatch.setattr(fk.norms, "forward_transform", refuse)
    with pytest.raises(fk.ParameterError, match="finite"):
        fk.hpfio_norm(f, s, p, frame64)


@pytest.fixture(scope="module")
def frame64_2pi():
    return fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi))


@pytest.mark.parametrize("p", [2.0, 4.0], ids=["parseval", "directions"])
@pytest.mark.parametrize("s", [180.0, 200.0])
def test_hpfio_norm_refuses_an_overflowing_s(frame64_2pi, p, s):
    # xi_max = 45.3 at N=64, L=2 pi: <xi>^s f^ or its p-th power overflows to inf or nan
    f = random_field(frame64_2pi.spec, np.random.default_rng(0), real=True)
    with pytest.raises(fk.ParameterError, match=f"s={s}, p={p} overflows"):
        fk.hpfio_norm(f, s, p, frame64_2pi)


@pytest.mark.parametrize("s", [0.0, 180.0, 200.0, 400.0])
def test_a_constant_field_has_finite_norms_at_every_s(frame64_2pi, s):
    # f^ = 0 off xi = 0, where <xi>^s = 1: a weight that overflows to inf
    # elsewhere leaves 0 there, not inf * 0 = nan
    spec = frame64_2pi.spec
    ones = fk.GridField(spec, np.ones(spec.shape))
    for p in (4.0 / 3.0, 2.0, 4.0):
        want = (2.0 * np.pi) ** (2.0 / p)
        assert fk.hpfio_norm(ones, s, p, frame64_2pi) == pytest.approx(want, rel=1e-12)
        assert fk.classical_norm(ones, s, p) == pytest.approx(want, rel=1e-12)
    assert np.abs(fk.bessel_potential(ones, s).samples - 1.0).max() <= 1e-12


def test_hpfio_norm_refuses_overflowing_weights_before_any_direction(frame64_2pi, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the direction pool started")

    monkeypatch.setattr(fk.norms, "ThreadPoolExecutor", no_pool)
    f = random_field(frame64_2pi.spec, np.random.default_rng(0), real=True)
    with pytest.raises(fk.ParameterError, match="s=200.0, p=4.0 overflows"):
        fk.hpfio_norm(f, 200.0, 4.0, frame64_2pi)


@pytest.mark.parametrize("s, p, match", [
    (400.0, 2.0, "smoothness s=400.0: <D>"),
    (180.0, 4.0, "s=180.0, p=4.0 overflows"),
], ids=["weights-overflow", "power-overflows"])
def test_classical_norm_refuses_an_overflowing_s(s, p, match):
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    f = random_field(spec, np.random.default_rng(0), real=True)
    with pytest.raises(fk.ParameterError, match=match):
        fk.classical_norm(f, s, p)


def test_a_power_that_overflows_at_s_zero_is_refused_with_no_warning():
    # no weight overflows at s = 0, but |f|^4 of a 1e100 field does
    spec = fk.GridSpec(N=32, L=8.0 * np.pi)
    f = fk.GridField(spec, np.full(spec.shape, 1e100))
    frame = fk.ParabolicFrame(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fk.lp_norm(f, 4.0) == np.inf
        with pytest.raises(fk.ParameterError, match="s=0.0, p=4.0 overflows"):
            fk.hpfio_norm(f, 0.0, 4.0, frame)
        with pytest.raises(fk.ParameterError, match="s=0.0, p=4.0 overflows"):
            fk.classical_norm(f, 0.0, 4.0)
