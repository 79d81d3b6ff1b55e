import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.interpolate import CubicSpline

import fiokit as fk
from fiokit import parabolic
from conftest import high_pass, random_field, refusal_tests


def test_c_sigma_closed_form():
    flat = (2.0 * np.pi) ** -0.5
    for sigma in (16.0, 25.0, 100.0):
        assert abs(fk.c_sigma(sigma) - flat) / flat < 1e-8


def test_c_sigma_monotone_nonincreasing():
    sigmas = np.geomspace(0.01, 64.0, 25)
    vals = [fk.c_sigma(float(s)) for s in sigmas]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-10)


def test_c_sigma_against_fine_trapezoid_oracle():
    for sigma in (0.3, 1.0, 4.0, 12.0):
        oracle = fk.c_sigma(sigma, nodes=8192)
        assert abs(fk.c_sigma(sigma) - oracle) / oracle < 1e-8


def test_c_sigma_table_matches_direct(frame64):
    table = frame64.geometry.ctable
    for sigma in np.geomspace(table.sigma_min * 2, 40.0, 15):
        direct = fk.c_sigma(float(sigma))
        assert abs(float(table(sigma)) - direct) / direct < 1e-5


def test_import_loads_no_scipy():
    # every transform is numpy.fft's and the c_sigma spline and the Calderon
    # constant are numpy: importing the package and its CLI loads no scipy module
    code = ("import sys, fiokit, fiokit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fk.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("sigma_min", [0.5 / 45.25, 0.5 / 362.1, 0.3, 1e-3])
def test_c_sigma_table_is_the_not_a_knot_spline(sigma_min):
    # scipy's CubicSpline (not-a-knot by default) on the same knots is the oracle
    table = parabolic.CSigmaTable(sigma_min)
    knots = table._knots
    oracle = CubicSpline(knots, [np.log(fk.c_sigma(float(np.exp(s)))) for s in knots])
    h = knots[1] - knots[0]
    logs = np.concatenate([
        knots,
        (knots[:-1] + knots[1:]) / 2.0,
        knots[0] - h * np.array([2.0, 1.0, 0.5, 1e-3]),
        np.linspace(knots[0], knots[-1], 2001),
    ])
    sigma = np.exp(logs)
    want = np.where(sigma < 16.0, np.exp(oracle(np.log(sigma))), table.FLAT)
    assert np.abs(table(sigma) / want - 1.0).max() <= 1e-13
    below16 = np.nextafter(16.0, 0.0)
    assert abs(float(table(below16)) / np.exp(oracle(np.log(below16))) - 1.0) <= 1e-13


def test_calderon_constant_is_the_quadrature_value():
    profile = parabolic.AngularCalderonProfile()

    def theta_log(s):
        return float(profile.theta(np.exp(s))) ** 2

    val, _ = quad(theta_log, np.log(0.5), np.log(2.0), epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(profile.constant - val) <= 1e-13 * val


def test_calderon_normalization(frame64):
    psi = frame64.geometry.psi
    for rho in np.geomspace(0.03, 300.0, 20):
        s = np.linspace(np.log(0.5 / rho) - 0.05, np.log(2.0 / rho) + 0.05, 4096)
        integral = trapezoid(psi(np.exp(s) * rho) ** 2, s)
        assert abs(integral - 1.0) <= 1e-10


def test_calderon_profile_support(frame64):
    psi = frame64.geometry.psi
    assert float(psi(0.49)) == 0.0
    assert float(psi(2.01)) == 0.0
    assert float(psi(1.0)) > 0.0


def test_phi_support_hard_zeros(frame64):
    geom = frame64.geometry
    e1 = np.array([1.0, 0.0])
    # below the radial threshold
    assert float(geom.phi_values(np.array([0.1, 0.0]), e1)) == 0.0
    # on-axis inside the active range
    assert float(geom.phi_values(np.array([4.0, 0.0]), e1)) > 0.0
    # angular distance 3 |zeta|^{-1/2}: outside the parabolic aperture
    rho = 9.0
    d = 3.0 / np.sqrt(rho)
    theta = 2.0 * np.arcsin(d / 2.0)
    pt = rho * np.array([np.cos(theta), np.sin(theta)])
    assert float(geom.phi_values(pt, e1)) == 0.0


def test_phi_support_on_whole_lattice(frame64):
    pts = fk.lattice(frame64.spec).points()
    mags = fk.lattice(frame64.spec).mags.ravel()
    for l in range(0, frame64.n_directions, 2):
        vals = np.zeros(len(pts))
        idx, v = frame64.sparse(l)
        vals[idx] = v
        omega = frame64.directions.omegas[l]
        safe = mags > 0
        unit = pts[safe] / mags[safe][:, None]
        d = np.hypot(unit[:, 0] - omega[0], unit[:, 1] - omega[1])
        outside = (mags[safe] < 0.125) | (d > 2.0 / np.sqrt(mags[safe]))
        assert np.abs(vals[safe][outside]).max() == 0.0
        assert vals[0] == 0.0  # zeta = 0


def test_rotational_covariance(frame64, rng):
    geom = frame64.geometry
    pts = rng.uniform(-8, 8, size=(64, 2))
    base = geom.phi_values(pts, frame64.directions.omegas[0])
    for l in (1, 3, 7):
        ang = 2.0 * np.pi * l / frame64.n_directions
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = geom.phi_values(pts @ rot.T, frame64.directions.omegas[l])
        assert np.abs(rotated - base).max() <= 1e-10


def test_build_phi_omega_validation(spec64, frame64):
    with pytest.raises(fk.ParameterError):
        fk.build_phi_omega(np.array([1.0, 1.0]), spec64, frame64.geometry)
    mult = fk.build_phi_omega(np.array([0.0, 1.0]), spec64, frame64.geometry)
    ref = frame64.multiplier(frame64.n_directions // 4)
    assert np.abs(mult.values - ref.values).max() <= 1e-12


def test_frame_reconstruction_high_pass(spec64, frame64, rng):
    g = high_pass(spec64, rng)
    rec = fk.frame_synthesize(fk.frame_analyze(g, frame64), frame64)
    rel = np.abs(rec.samples - g.samples).max() / np.abs(g.samples).max()
    assert rel <= 1e-10


def test_frame_kills_low_spectra(spec64, frame64, rng):
    f = random_field(spec64, rng)
    mask = np.where(fk.lattice(spec64).mags < 0.5, 1.0, 0.0)
    low = fk.inverse_transform(mask * fk.forward_transform(f), spec64)
    rec = fk.frame_synthesize(fk.frame_analyze(low, frame64), frame64)
    assert np.abs(rec.samples).max() <= 1e-12 * np.abs(low.samples).max()


def test_analyze_low_pass_is_zero(spec64, frame64, rng):
    f = random_field(spec64, rng)
    mask = np.where(fk.lattice(spec64).mags < 0.12, 1.0, 0.0)
    low = fk.inverse_transform(mask * fk.forward_transform(f), spec64)
    for piece in fk.frame_analyze(low, frame64):
        assert np.abs(piece.samples).max() <= 1e-13 * np.abs(low.samples).max()


def test_analyze_linearity(spec64, frame64, rng):
    f = random_field(spec64, rng)
    g = random_field(spec64, rng)
    both = fk.frame_analyze(f + g, frame64)
    fa = fk.frame_analyze(f, frame64)
    ga = fk.frame_analyze(g, frame64)
    for b, x, y in zip(both, fa, ga):
        assert np.abs(b.samples - x.samples - y.samples).max() < 1e-12


def test_synthesize_single_member(spec64, frame64, rng):
    g = high_pass(spec64, rng)
    collection = [fk.GridField(spec64, np.zeros(spec64.shape, complex))
                  for _ in range(frame64.n_directions)]
    collection[5] = g
    out = fk.frame_synthesize(collection, frame64)
    w = frame64.directions.weights[5]
    ref = fk.apply_multiplier(g, frame64.m)
    assert np.abs(out.samples - w * ref.samples).max() < 1e-12 * np.abs(g.samples).max()


def test_m_growth_exponent(spec_fine):
    frame = fk.ParabolicFrame(spec_fine)
    axis = fk.lattice(spec_fine).axis
    sel = [(i, axis[i]) for i in range(1, spec_fine.N // 2) if 4.0 <= axis[i] <= 64.0]
    xs = np.log([x for _, x in sel])
    ys = np.log([frame.m.values[i, 0] for i, _ in sel])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 0.25) <= 0.05


def test_direction_set_weights(frame64):
    w = frame64.directions.weights
    assert abs(w.sum() - 2.0 * np.pi) < 1e-12
    norms = np.hypot(frame64.directions.omegas[:, 0], frame64.directions.omegas[:, 1])
    assert np.abs(norms - 1.0).max() < 1e-12


def test_anisotropic_bound_finite(frame64):
    report = fk.anisotropic_bound_check(frame64, alpha_max=2)
    assert set(report) == {(a, b) for a in range(3) for b in range(3 - a)}
    for val in report.values():
        assert np.isfinite(val)
    assert report[(0, 0)] > 0.0
    # far off the support the integrand contributes nothing
    geom = frame64.geometry
    assert float(geom.phi_values(np.array([-4.0, 0.0]), np.array([1.0, 0.0]))) == 0.0


def assert_matches_direct_evaluation(frame):
    """Every direction's support equals that of build_phi_omega exactly,
    its values agree to 1e-12, and on the Nyquist lines bit for bit."""
    spec = frame.spec
    rows, cols = np.divmod(np.arange(spec.N**2), spec.N)
    nyquist = (rows == spec.N // 2) | (cols == spec.N // 2)
    for l, omega in enumerate(frame.directions.omegas):
        direct = fk.build_phi_omega(omega, spec, frame.geometry).values.ravel()
        idx, vals = frame.sparse(l)
        assert np.array_equal(idx, np.flatnonzero(direct))
        built = np.zeros(spec.N**2)
        built[idx] = vals
        assert np.abs(built - direct).max() <= 1e-12
        assert np.array_equal(built[nyquist], direct[nyquist])


def test_symmetric_build_matches_direct_evaluation(frame64):
    assert_matches_direct_evaluation(frame64)


@pytest.mark.parametrize("M", [60, 57])
def test_symmetric_build_matches_direct_evaluation_any_M(M):
    # 60: all 8 symmetries map directions onto directions; 57: only theta -> -theta
    frame = fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi), M_omega=M)
    assert frame.n_directions == M
    assert_matches_direct_evaluation(frame)


def test_symmetric_build_evaluates_one_eighth():
    from fiokit.parabolic import _mirror_source

    for M in (16, 112, 160):
        evaluated = [l for l in range(M) if _mirror_source(l, M) is None]
        assert evaluated == list(range(M // 8 + 1))


def test_frame_build_is_deterministic(spec64, frame64):
    again = fk.ParabolicFrame(spec64)
    for l in range(frame64.n_directions):
        for a, b in zip(frame64.sparse(l), again.sparse(l)):
            assert np.array_equal(a, b)
        assert all(np.array_equal(a, b) for a, b in zip(frame64.touched_lines(l), again.touched_lines(l)))
    assert np.array_equal(frame64.coverage, again.coverage)
    assert np.array_equal(frame64.m.values, again.m.values)
    assert np.array_equal(frame64.q_values, again.q_values)


def test_frame_q_values_are_the_low_cutoff_of_the_lattice(spec64, frame64):
    assert np.array_equal(frame64.q_values, fk.dyadic.low_cutoff(fk.lattice(spec64).mags))


def test_frame_arrays_are_read_only():
    # every norm on the frame reads these arrays, so a write into one would move them all
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    frame = fk.ParabolicFrame(spec)
    f = random_field(spec, np.random.default_rng(5))
    before = [fk.hpfio_norm(f, 0.5, p, frame).hex() for p in (2.0, 4.0)]
    idx, vals = frame.sparse(3)
    arrays = (frame.energy, frame.coverage, frame.q_values, frame.m.values, idx, vals,
              frame.touched_lines(3)[1], frame.directions.omegas, frame.directions.weights)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a *= 2
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] = 0
    assert [fk.hpfio_norm(f, 0.5, p, frame).hex() for p in (2.0, 4.0)] == before


@pytest.mark.parametrize("M", [None, 57])
def test_frame_energy_is_weighted_square_sum(frame64, M):
    from fiokit.operators import _frame_weight_multipliers

    if M is None:
        frame = frame64
    else:
        frame = fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi), M_omega=M)
    energy = np.zeros(frame.spec.N**2)
    for l in range(frame.n_directions):
        idx, vals = frame.sparse(l)
        energy[idx] += frame.directions.weights[l] * vals**2
    energy = energy.reshape(frame.spec.shape)
    assert np.array_equal(frame.energy, energy)
    phi, _ = _frame_weight_multipliers(frame)
    assert np.array_equal(phi.values, np.sqrt(frame.q_values**2 + energy))


def frame_bytes(frame):
    arrays = [a for pair in frame._sparse for a in pair]
    return [a.tobytes() for a in arrays + [frame.coverage, frame.energy, frame.m.values]]


@pytest.mark.parametrize("N", [64, 128])
def test_quadrature_block_size_changes_no_bit(N, monkeypatch):
    spec = fk.GridSpec(N=N, L=2.0 * np.pi)
    default = fk.ParabolicFrame(spec)
    # 7 points leaves a ragged last block; N^2 points is one block per call
    for block in (7, N * N):
        monkeypatch.setattr(parabolic, "_BLOCK", block)
        assert frame_bytes(fk.ParabolicFrame(spec)) == frame_bytes(default)
    # direction 1 is evaluated, not copied from a mirror image
    assert parabolic._mirror_source(1, default.n_directions) is None
    stored = np.zeros(N * N)
    idx, vals = default.sparse(1)
    stored[idx] = vals
    direct = default.geometry.phi_values(fk.lattice(spec).points(), default.directions.omegas[1])
    assert direct.tobytes() == stored.tobytes()


def test_frame_build_peak_memory():
    # one (points x 96) quadrature array per direction peaks at about 13 MB
    spec = fk.GridSpec(N=128, L=2.0 * np.pi)
    tracemalloc.start()
    try:
        fk.ParabolicFrame(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


globals().update(refusal_tests(__name__))
