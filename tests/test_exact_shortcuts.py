"""smooth_step, c_sigma and zygmund_norm skip work whose result is known
exactly: plateaus, arcs where the bump is 0 and bands under the running
sup.  Each test keeps the full formula as an oracle and compares bytes."""

import numpy as np
import pytest

import fiokit as fk
from fiokit import dyadic, parabolic, profiles
from conftest import plane_wave, random_field


def reference_smooth_step(t):
    """a / (a + b) evaluated at every t, plateaus included."""
    t = np.asarray(t, dtype=float)

    def mollifier(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    a, b = mollifier(t), mollifier(1.0 - t)
    with np.errstate(invalid="ignore"):
        return a / (a + b)


def reference_c_sigma(sigma, nodes=None):
    """The bump squared summed over every node of the circle."""
    if nodes is None:
        nodes = max(512, int(np.ceil(2048.0 / np.sqrt(min(sigma, 16.0)))))
    return float(_reference_squares(sigma, nodes).sum() * 2.0 * np.pi / nodes) ** -0.5


def _reference_squares(sigma, nodes):
    theta = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    chord = 2.0 * np.abs(np.sin(theta / 2.0))
    return (1.0 - reference_smooth_step((chord / np.sqrt(sigma) - 0.5) / 0.5)) ** 2


def _same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


_EDGES = [0.0, -0.0, 1.0, np.inf, -np.inf, 0.5, 1e-300, -3.0, 7.0,
          np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
          np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]


# -1/t overflows to -inf for a subnormal t, at the reference as well
_SUBNORMAL_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@_SUBNORMAL_OVERFLOW
@pytest.mark.parametrize("t", _EDGES)
def test_smooth_step_scalars_are_byte_identical(t):
    _same(profiles.smooth_step(t), reference_smooth_step(t))
    _same(profiles.smooth_step(np.array(t)), reference_smooth_step(np.array(t)))


@_SUBNORMAL_OVERFLOW
def test_smooth_step_arrays_are_byte_identical():
    rng = np.random.default_rng(3)
    t = np.concatenate([_EDGES, rng.uniform(-1.0, 2.0, 20000), np.linspace(-0.1, 1.1, 4001),
                        rng.uniform(0.0, 1e-2, 2000), 1.0 - rng.uniform(0.0, 1e-2, 2000)])
    _same(profiles.smooth_step(t), reference_smooth_step(t))
    grid = t[:10000].reshape(100, 100)
    _same(profiles.smooth_step(grid), reference_smooth_step(grid))
    _same(profiles.smooth_step(grid.T), reference_smooth_step(grid.T))
    _same(profiles.smooth_step(t.tolist()), reference_smooth_step(t.tolist()))
    _same(profiles.smooth_step(np.empty((0, 3))), reference_smooth_step(np.empty((0, 3))))


@pytest.mark.filterwarnings("error")
def test_smooth_step_warns_at_no_subnormal_or_nextafter_input():
    # -1/t would overflow for a subnormal t; smooth_step puts such a t on
    # the 0.0 plateau, which is what exp(-1/t) gives there
    tiny = np.finfo(float).tiny
    t = np.array([5e-324, np.nextafter(0.0, 1.0), tiny / 2.0, np.nextafter(tiny, 0.0), tiny,
                  np.nextafter(tiny, 1.0), np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                  np.nextafter(0.0, -1.0), -5e-324])
    with np.errstate(over="ignore"):
        want = reference_smooth_step(t)
    _same(profiles.smooth_step(t), want)
    for v, w in zip(t, want):
        _same(profiles.smooth_step(v), w)
        _same(profiles.smooth_step(float(v)), w)
    assert not want[:6].any()


def test_smooth_step_keeps_nan():
    assert np.isnan(profiles.smooth_step(np.nan))
    out = profiles.smooth_step(np.array([0.2, np.nan, 2.0, -1.0]))
    assert np.isnan(out[1])
    _same(out[[0, 2, 3]], reference_smooth_step(np.array([0.2, 2.0, -1.0])))


_SIGMAS = np.concatenate([np.geomspace(1e-5, 50.0, 60), [0.25, 1.0, 3.999, 4.0, 16.0]])


@pytest.mark.parametrize("nodes", [None, 3, 17, 512, 1001], ids=lambda n: f"nodes={n}")
def test_c_sigma_is_byte_identical(nodes):
    for sigma in _SIGMAS:
        assert fk.c_sigma(float(sigma), nodes) == reference_c_sigma(float(sigma), nodes), sigma


def test_c_sigma_skips_only_nodes_where_the_bump_is_zero():
    skipped_any = False
    for sigma in _SIGMAS:
        nodes = max(512, int(np.ceil(2048.0 / np.sqrt(min(sigma, 16.0)))))
        outside = np.ones(nodes, dtype=bool)
        outside[parabolic._support_nodes(float(sigma), nodes)] = False
        assert not _reference_squares(float(sigma), nodes)[outside].any(), sigma
        skipped_any |= outside.any()
    assert skipped_any


def _zygmund_fields(spec, fam):
    rng = np.random.default_rng(11)
    k = spec.xi_spacing
    band = fk.apply_multiplier(random_field(spec, rng), fam.multiplier(min(2, fam.J_max)))
    return {
        "random": random_field(spec, rng),
        "band-limited": band,
        "plane-wave": plane_wave(spec, (3 * k, 5 * k)),
        "constant": fk.GridField(spec, np.ones(spec.shape)),
        "zero": fk.GridField(spec, np.zeros(spec.shape)),
    }


@pytest.mark.parametrize("N, L", [(64, 32 * np.pi), (256, 2 * np.pi), (32, 0.25)])
@pytest.mark.parametrize("r", [0.3, 1.5, 4.0])
def test_zygmund_norm_equals_the_max_over_every_band(N, L, r):
    spec = fk.GridSpec(N=N, L=L)
    fam = fk.build_lp_family(spec)
    for name, f in _zygmund_fields(spec, fam).items():
        want = max([0.0] + [2.0 ** (j * r) * float(np.abs(b).max()) for j, b in fam.bands(f)])
        assert fk.zygmund_norm(f, r, fam) == want, name


def test_chirp_build_skips_zygmund_bands(spec_fine, fam_fine, fft_calls):
    fk.preset_rough_chirp(spec_fine, 2.0, 0.5, seed=0, chi=fam_fine)
    calls = [call.name for call in fft_calls]
    J = fam_fine.J_max
    # per band k >= 1: one transform pair builds it and one forward
    # transform feeds its Zygmund norm, which every band's inverse would
    # follow without the bound
    assert calls.count("fftn") == 2 * J
    assert calls.count("ifftn") < J + J * (J + 1)


def _reference_build(monkeypatch, build):
    with monkeypatch.context() as m:
        m.setattr(profiles, "smooth_step", reference_smooth_step)
        m.setattr(parabolic, "c_sigma", reference_c_sigma)
        return build()


@pytest.mark.parametrize("N", [64, 128])
def test_frame_is_byte_identical_to_the_reference_build(monkeypatch, N):
    spec = fk.GridSpec(N=N, L=2 * np.pi)
    ref = _reference_build(monkeypatch, lambda: fk.ParabolicFrame(spec))
    got = fk.ParabolicFrame(spec)
    assert len(got._sparse) == len(ref._sparse)
    for (idx, vals), (ref_idx, ref_vals) in zip(got._sparse, ref._sparse):
        assert idx.tobytes() == ref_idx.tobytes() and vals.tobytes() == ref_vals.tobytes()
    for name in ("coverage", "energy", "q_values"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert got.m.values.tobytes() == ref.m.values.tobytes()


@pytest.mark.parametrize("N, L", [(64, 2 * np.pi), (128, 2 * np.pi), (64, 32 * np.pi)])
def test_lp_families_are_byte_identical_to_the_reference_build(monkeypatch, N, L):
    spec = fk.GridSpec(N=N, L=L)
    ref = _reference_build(monkeypatch, lambda: dyadic.LittlewoodPaleyFamily(spec))
    got = dyadic.LittlewoodPaleyFamily(spec)
    for j in range(got.J_max + 1):
        assert got.values[j].tobytes() == ref.values[j].tobytes(), j
    mags = fk.lattice(spec).mags
    q = _reference_build(monkeypatch, lambda: dyadic.low_cutoff(mags))
    assert dyadic.low_cutoff(mags).tobytes() == q.tobytes()
    tilde = _reference_build(monkeypatch, lambda: [ref.tilde_profile(k, mags) for k in range(3)])
    for k in range(3):
        assert got.tilde_profile(k, mags).tobytes() == tilde[k].tobytes(), k
