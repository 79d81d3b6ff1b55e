"""Construction invariants as properties: the Littlewood-Paley partition
of unity, the off-lattice band weights, the frame's hard-zero sector
supports, its coverage and energy sums, paraproduct completeness and the
band split against lp_project.

Grids and frames are drawn as in test_directional.py (N in {16, 32, 64},
L in [2 pi, 32 pi], M in [4, 64]), with eps in (0, 1/4) for the
Littlewood-Paley families, under the same Hypothesis settings.  The band
weights are also drawn at N = 128.
"""

import functools

import numpy as np
from hypothesis import given, reject
from hypothesis import strategies as st

import fiokit as fk
from conftest import random_field
from test_directional import PROPERTY_SETTINGS, frames


@functools.lru_cache(maxsize=4)
def _family(N, L, eps):
    return fk.LittlewoodPaleyFamily(fk.GridSpec(N=N, L=L), eps)


@st.composite
def families(draw, sizes=(16, 32, 64)):
    N = draw(st.sampled_from(sizes))
    L = draw(st.floats(2.0 * np.pi, 32.0 * np.pi))
    eps = draw(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True))
    try:
        return _family(N, L, eps)
    except fk.ConstructionError:
        reject()


@PROPERTY_SETTINGS
@given(fam=families())
def test_property_partition_of_unity(fam):
    assert np.abs(sum(fam.values) - 1.0).max() <= 1e-12
    mags = fk.lattice(fam.spec).mags
    for j, values in enumerate(fam.values):
        assert values.min() >= 0.0
        # each band vanishes exactly where its analytic profile does
        assert not values[fam.band_profile(j, mags) == 0.0].any()


@PROPERTY_SETTINGS
@given(fam=families())
def test_property_partition_is_exact(fam):
    # psi_j is its profile, and the profiles sum to 1 in floating point
    mags = fk.lattice(fam.spec).mags
    for j, values in enumerate(fam.values):
        assert values.tobytes() == fam.band_profile(j, mags).tobytes()
    assert np.all(sum(fam.values) == 1.0)


@PROPERTY_SETTINGS
@given(fam=families(sizes=(16, 32, 64, 128)), t=st.floats(0.0, 2.0))
def test_property_band_weights(fam, t):
    cover = 2.0**fam.J_max * (1.0 + fam.eps) / 2.0
    rho = t * cover
    weights = fam.band_weights(rho)
    want = np.array([fam.band_profile(j, rho) for j in range(fam.J_max + 1)])
    assert weights.tobytes() == want.tobytes()
    if rho <= cover:
        assert abs(weights.sum() - 1.0) <= 1e-15


@PROPERTY_SETTINGS
@given(frame=frames())
def test_property_sector_support_is_hard_zero(frame):
    lat = fk.lattice(frame.spec)
    rho = lat.mags
    safe = np.where(rho > 0.0, rho, 1.0)
    for l, omega in enumerate(frame.directions.omegas):
        d = np.hypot(lat.mesh[0] / safe - omega[0], lat.mesh[1] / safe - omega[1])
        sector = (rho >= 0.125) & (d <= 2.0 / np.sqrt(safe))
        values = frame.multiplier(l).values
        assert not values[~sector].any()
        assert values.min() >= 0.0


@PROPERTY_SETTINGS
@given(frame=frames())
def test_property_coverage_and_energy_are_direct_sums(frame):
    coverage = np.zeros(frame.spec.shape)
    energy = np.zeros(frame.spec.shape)
    for l, w in enumerate(frame.directions.weights):
        phi = frame.multiplier(l).values
        coverage += w * phi
        energy += w * phi**2
    np.testing.assert_allclose(frame.coverage, coverage, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(frame.energy, energy, rtol=1e-12, atol=1e-14)


@PROPERTY_SETTINGS
@given(fam=families(), seed=st.integers(0, 2**32 - 1))
def test_property_paraproduct_completeness(fam, seed):
    rng = np.random.default_rng(seed)
    b = random_field(fam.spec, rng, real=True)
    f = random_field(fam.spec, rng)
    total = sum(piece(b, f, fam).samples
                for piece in (fk.paraproduct_hh, fk.paraproduct_hl, fk.paraproduct_lh))
    prod = b.samples * f.samples
    assert np.abs(total - prod).max() <= 1e-12 * np.abs(prod).max()


@PROPERTY_SETTINGS
@given(fam=families(), seed=st.integers(0, 2**32 - 1))
def test_property_bands_equal_lp_project(fam, seed):
    f = random_field(fam.spec, np.random.default_rng(seed))
    every = list(fam.bands(f))
    assert [j for j, _ in every] == list(range(fam.J_max + 1))
    for j, samples in every:
        assert samples.tobytes() == fk.lp_project(f, j, fam).samples.tobytes()
