"""The frame's directional transform (ParabolicFrame.parts) against its
definition: scatter phi_l f^ onto the lattice, then one full-grid inverse
transform per direction."""

import functools
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import fiokit as fk
from conftest import high_pass, hpfio_by_definition, random_field


def _direction_by_definition(spectrum, frame, l):
    flat = np.zeros(frame.spec.N**2, dtype=complex)
    idx, vals = frame.sparse(l)
    flat[idx] = vals * spectrum.ravel()[idx]
    return fk.inverse_transform(flat.reshape(frame.spec.shape), frame.spec).samples


def _assert_analyze_matches_definition(f, frame):
    spectrum = fk.forward_transform(f)
    pieces = fk.frame_analyze(f, frame)
    assert len(pieces) == frame.n_directions
    scale = np.abs(f.samples).max()
    for l, piece in enumerate(pieces):
        want = _direction_by_definition(spectrum, frame, l)
        assert np.abs(piece.samples - want).max() <= 1e-12 * scale


@pytest.fixture(scope="module")
def frame128_2pi():
    return fk.ParabolicFrame(fk.GridSpec(N=128, L=2.0 * np.pi))


@pytest.fixture(scope="module")
def frame_m57():
    return fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi), M_omega=57)


@pytest.mark.parametrize("frame_name", ["frame64", "frame128_2pi", "frame_m57"])
def test_analyze_matches_definition(frame_name, request, rng):
    frame = request.getfixturevalue(frame_name)
    if frame_name == "frame128_2pi":
        # both pruning axes occur on this frame
        assert {frame.touched_lines(l)[0] for l in range(frame.n_directions)} == {0, 1}
    _assert_analyze_matches_definition(random_field(frame.spec, rng), frame)


def test_analyze_silent_direction_is_exactly_zero(frame64):
    # exp(i xi0.x) at xi0 = (N/4, N/4) lattice steps has a one-hot spectrum
    spec = frame64.spec
    k = np.arange(spec.N)
    f = fk.GridField(spec, np.array([1.0, 1j, -1.0, -1j])[(k[:, None] + k[None, :]) % 4])
    flat = fk.forward_transform(f).ravel()
    silent = [l for l in range(frame64.n_directions) if not np.any(flat[frame64.sparse(l)[0]])]
    assert 0 < len(silent) < frame64.n_directions
    pieces = fk.frame_analyze(f, frame64)
    assert all(not np.any(pieces[l].samples) for l in silent)
    _assert_analyze_matches_definition(f, frame64)


def test_parts_yields_only_directions_with_content(frame64):
    # the one-hot field above: parts yields (l, g_l, work[1]) for the loud directions only,
    # in the order asked for, and frame_analyze gives each silent one its own zero grid
    spec, M = frame64.spec, frame64.n_directions
    k = np.arange(spec.N)
    f = fk.GridField(spec, np.array([1.0, 1j, -1.0, -1j])[(k[:, None] + k[None, :]) % 4])
    spectrum = fk.forward_transform(f)
    order = [*range(1, M, 2), *range(0, M, 2)]
    loud = [l for l in order if np.any(spectrum.ravel()[frame64.sparse(l)[0]])]
    assert 0 < len(loud) < M
    work = np.empty((2,) + spec.shape, dtype=complex)
    seen = []
    for l, g, spare in frame64.parts(spectrum, order, work):
        assert spare.shape == spec.shape and spare.ctypes.data == work[1].ctypes.data
        assert not np.may_share_memory(g, spare)
        assert np.abs(g - _direction_by_definition(spectrum, frame64, l)).max() <= 1e-12
        seen.append(l)
    assert seen == loud
    pieces = [piece.samples for piece in fk.frame_analyze(f, frame64)]
    assert all(not np.any(pieces[l]) for l in set(range(M)) - set(loud))
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(pieces) for b in pieces[:i])


def test_synthesize_runs_one_forward_transform(frame64, rng, fft_calls):
    g = high_pass(frame64.spec, rng)
    pieces = fk.frame_analyze(g, frame64)
    fft_calls.clear()
    rec = fk.frame_synthesize(pieces, frame64)
    assert [call.name for call in fft_calls].count("fftn") == 1
    assert np.abs(rec.samples - g.samples).max() <= 1e-10 * np.abs(g.samples).max()


# ---------------------------------------------------------------------------
# Properties over random frames: N in {16, 32, 64}, L in [2 pi, 32 pi] and
# M in [4, 64], M not always a multiple of 8.  Draws whose frame does not
# cover |zeta| >= 1/2 are discarded.  Examples are few and derandomized,
# and nothing is written into the checkout: no example database, and the
# files Hypothesis writes from collection on (a constants cache) go to a
# temporary directory that is removed at exit.
# ---------------------------------------------------------------------------

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=10_000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@functools.lru_cache(maxsize=4)
def _frame(N, L, M):
    return fk.ParabolicFrame(fk.GridSpec(N=N, L=L), M_omega=M)


@st.composite
def frames(draw):
    N = draw(st.sampled_from([16, 32, 64]))
    L = draw(st.floats(2.0 * np.pi, 32.0 * np.pi))
    M = draw(st.integers(4, 64))
    try:
        return _frame(N, L, M)
    except fk.ConstructionError:
        reject()


@PROPERTY_SETTINGS
@given(frame=frames(), seed=st.integers(0, 2**32 - 1))
def test_property_analyze_matches_definition(frame, seed):
    f = random_field(frame.spec, np.random.default_rng(seed))
    _assert_analyze_matches_definition(f, frame)


@PROPERTY_SETTINGS
@given(frame=frames(), seed=st.integers(0, 2**32 - 1))
def test_property_synthesize_inverts_analyze_on_high_spectra(frame, seed):
    g = high_pass(frame.spec, np.random.default_rng(seed))
    rec = fk.frame_synthesize(fk.frame_analyze(g, frame), frame)
    assert np.abs(rec.samples - g.samples).max() <= 1e-10 * np.abs(g.samples).max()


@PROPERTY_SETTINGS
@given(
    frame=frames(),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(1.0, 6.0, exclude_min=True, exclude_max=True),
    s=st.floats(-0.5, 0.7),
)
def test_property_hpfio_matches_definition(frame, seed, p, s):
    f = random_field(frame.spec, np.random.default_rng(seed))
    assert fk.hpfio_norm(f, s, p, frame) == pytest.approx(
        hpfio_by_definition(f, s, p, frame), rel=1e-12)
