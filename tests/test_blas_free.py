"""fiokit's reductions and solves run on numpy's own loops, never BLAS or LAPACK,
whose threaded kernels sum in an order that depends on the thread count."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fiokit as fk

THREAD_DIGESTS = """
import hashlib, numpy as np, fiokit as fk
spec = fk.GridSpec(N=128, L=2 * np.pi)
frame, fam = fk.ParabolicFrame(spec), fk.build_lp_family(spec)
chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=0, chi=fam)
print(fk.certified_l2_bound(chirp, frame, seed=0).hex())
half_wave = fk.SpectralMultiplier(spec, np.exp(-0.5j * fk.lattice(spec).mags))
print(fk.certified_l2_bound(fk.operators._Composed(chirp, half_wave), frame, seed=0).hex())
f = fk.GridField(spec, np.random.default_rng(1).standard_normal(spec.shape))
print(fk.hpfio_norm(f, 0.5, 2.0, frame).hex())
print(hashlib.sha256(fk.focusing_member(spec, 3, frame).field.samples.tobytes()).hexdigest())
family = fk.build_test_family(spec, frame, bands=(2, 3, 4), kinds=("packet", "random"), fam=fam)
report = fk.operator_norm_probe(chirp, 0.5, 0.5, 2.0, frame, family)
print([row["ratio"].hex() for row in report.rows], report.trend_slope().hex())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fk.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", THREAD_DIGESTS], capture_output=True,
                              text=True, env=env, check=True)
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


def _refuse(*args, **kwargs):
    raise AssertionError("fiokit reached a BLAS or LAPACK routine")


def test_no_public_path_calls_blas_or_lapack(monkeypatch):
    for name in ("vdot", "dot", "inner", "matmul", "tensordot", "polyfit"):
        monkeypatch.setattr(np, name, _refuse)
    for name in ("solve", "norm", "lstsq"):
        monkeypatch.setattr(np.linalg, name, _refuse)
    spec = fk.GridSpec(N=64, L=4 * 2 * np.pi)
    frame, fam = fk.ParabolicFrame(spec), fk.build_lp_family(spec)
    chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=0, chi=fam)
    family = fk.build_test_family(spec, frame, bands=(1, 2, 3), fam=fam)
    rng = np.random.default_rng(0)
    f = fk.GridField(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    for p in (2.0, 4.0):
        assert np.isfinite(fk.hpfio_norm(f, 0.5, p, frame))
    assert np.isfinite(fk.zygmund_norm(f, 1.5, fam))
    assert np.isfinite(fk.apply_symbol(chirp, f).samples).all()
    assert np.isfinite(fk.certified_l2_bound(chirp, frame))
    report = fk.operator_norm_probe(chirp, 0.0, 0.0, 2.0, frame, family)
    assert np.isfinite(report.trend_slope()) and np.isfinite(report.spectral_bound)
    for product in (fk.paraproduct_hh, fk.paraproduct_hl, fk.paraproduct_lh):
        assert np.isfinite(product(f, f, fam).samples).all()
    dense = chirp.densify()
    split = fk.smooth_split(dense, 0.75, fam)
    assert np.isfinite(split.sharp.eval(np.array([3.0, -1.2]))).all()
    assert fk.estimate_seminorms(dense, 1, fam)
    assert fk.to_separable(dense, fam).bands
    assert fk.coifman_meyer_decompose(dense, 1, bands=(1, 2), fam=fam).coeffs


def _ratio_report(profile):
    report = fk.BoundednessReport(fk.GridSpec(N=16, L=1.0), 2.0, 0.0, 0.0)
    for k, ratio in profile.items():
        member = fk.FamilyMember(f"m{k}", k, None)
        report.add(member, 1.0, ratio)
        report.add(member, 2.0, ratio)  # a smaller ratio on the same band leaves its max
    return report


@pytest.mark.parametrize("profile", [
    {1: 1.0, 2: 2.0, 3: 8.0},
    {0: 0.3, 3: 1.7, 4: 0.9, 7: 12.5},
    {2: 1e-3, 5: 1e3, 6: 1.0, 8: 7.0, 9: 0.5},
])
def test_trend_slope_is_the_least_squares_slope(profile):
    ks = np.array(sorted(profile))
    oracle = np.polyfit(ks, np.log2([profile[k] for k in ks]), 1)[0]
    assert _ratio_report(profile).trend_slope() == pytest.approx(oracle, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("profile", [{}, {3: 5.0}])
def test_trend_slope_of_fewer_than_two_bands_is_zero(profile):
    assert _ratio_report(profile).trend_slope() == 0.0


def test_sq_sum_is_the_weighted_sum_of_squares():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    weight = rng.random((32, 32))
    direct = float((weight * (w.real**2 + w.imag**2)).sum())
    assert fk.grid._sq_sum(w, weight) == pytest.approx(direct, rel=1e-13)
    assert fk.grid._sq_sum(w) == pytest.approx(float((np.abs(w) ** 2).sum()), rel=1e-13)
    assert fk.grid._sq_sum(np.full((4, 4), 1e200)) == np.inf
