"""PhiGeometry._phi returns phi_omega's support as (indices, values), the
form the frame stores.  The dense evaluation it replaced is kept here as
the oracle: every frame array and every phi_values output is compared
with it byte for byte."""

import numpy as np
import pytest

import fiokit as fk
from fiokit import parabolic


def dense_phi(geom, polar, size, omega):
    """phi_omega at every one of size points, zero off the active set."""
    omega = np.asarray(omega, dtype=float)
    d = np.hypot(polar.unit[:, 0] - omega[0], polar.unit[:, 1] - omega[1])
    lo = np.maximum(polar.lo, d * d)
    act = lo < polar.hi
    out = np.zeros(size)
    out[polar.cand[act]] = geom._windows(polar.rho[act], d[act], lo[act], polar.hi[act])
    return out


def oracle_phi(geom, polar, omega):
    """The dense evaluation read back through np.nonzero."""
    size = int(polar.cand[-1]) + 1 if polar.cand.size else 0
    vals = dense_phi(geom, polar, size, omega)
    idx = np.nonzero(vals)[0]
    return idx, vals[idx]


def oracle_phi_values(geom, points, omega):
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    return dense_phi(geom, parabolic._Polar(flat), len(flat), omega).reshape(pts.shape[:-1])


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("M", [None, 57, 60], ids=lambda M: f"M={M}")
@pytest.mark.parametrize("N", [64, 128])
def test_frame_equals_the_dense_oracle_build(monkeypatch, N, M):
    spec = fk.GridSpec(N=N, L=2 * np.pi)
    with monkeypatch.context() as m:
        m.setattr(parabolic.PhiGeometry, "_phi", oracle_phi)
        ref = fk.ParabolicFrame(spec, M)
    got = fk.ParabolicFrame(spec, M)
    assert len(got._sparse) == len(ref._sparse) == got.n_directions
    for (idx, vals), (ref_idx, ref_vals) in zip(got._sparse, ref._sparse):
        _same(idx, ref_idx)
        _same(vals, ref_vals)
    for (axis, lines), (ref_axis, ref_lines) in zip(got._lines, ref._lines):
        assert axis == ref_axis
        _same(lines, ref_lines)
    for name in ("coverage", "energy", "q_values"):
        _same(getattr(got, name), getattr(ref, name))
    _same(got.m.values, ref.m.values)


def _omegas(frame):
    ang = 0.3717
    return list(frame.directions.omegas[:9]) + [np.array([np.cos(ang), np.sin(ang)])]


def test_phi_values_equal_the_oracle_on_the_lattice(frame64):
    geom = frame64.geometry
    pts = fk.lattice(frame64.spec).points()
    grid = pts.reshape(frame64.spec.shape + (2,))
    for omega in _omegas(frame64):
        _same(geom.phi_values(pts, omega), oracle_phi_values(geom, pts, omega))
        _same(geom.phi_values(grid, omega), oracle_phi_values(geom, grid, omega))


def test_phi_values_equal_the_oracle_off_the_lattice(frame64, rng):
    geom = frame64.geometry
    ang = rng.uniform(0.0, 2.0 * np.pi, 40)
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    small = np.concatenate([np.zeros((1, 2)), circle * 0.125, circle * rng.uniform(0.0, 0.125, (40, 1))])
    wide = rng.uniform(-20.0, 20.0, size=(500, 2))
    for omega in _omegas(frame64):
        _same(geom.phi_values(small, omega), oracle_phi_values(geom, small, omega))
        assert not geom.phi_values(small, omega).any()
        _same(geom.phi_values(wide, omega), oracle_phi_values(geom, wide, omega))


@pytest.mark.parametrize("shape", [(2,), (3, 4, 2)], ids=["single-point", "3x4-points"])
def test_phi_values_keep_the_input_shape(frame64, rng, shape):
    geom = frame64.geometry
    e1 = np.array([1.0, 0.0])
    for pts in (rng.uniform(-8.0, 8.0, size=shape), np.full(shape, 3.0), np.zeros(shape)):
        _same(geom.phi_values(pts, e1), oracle_phi_values(geom, pts, e1))
        _same(geom.phi_values(pts.tolist(), e1), oracle_phi_values(geom, pts, e1))


def test_phi_support_is_ascending_and_nonzero(frame64):
    geom = frame64.geometry
    pts = fk.lattice(frame64.spec).points()
    polar = parabolic._Polar(pts)
    for omega in _omegas(frame64):
        idx, vals = geom._phi(polar, omega)
        assert idx.size and idx.size == vals.size
        assert (np.diff(idx) > 0).all()
        assert (vals != 0.0).all()
        assert idx.min() >= 0 and idx.max() < len(pts)
