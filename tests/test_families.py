import numpy as np
import pytest

import fiokit as fk


@pytest.mark.parametrize("N, L", [(16, 1.0), (64, 2.0 * np.pi), (128, 32.0 * np.pi)])
def test_plane_wave_member_clips_high_bands(N, L):
    # a band beyond the grid lands on the clipped center, 3N/8 lattice steps
    spec = fk.GridSpec(N=N, L=L)
    spectrum = np.abs(fk.forward_transform(fk.plane_wave_member(spec, 40).field))
    assert np.unravel_index(np.argmax(spectrum), spec.shape) == (3 * N // 8, 0)


def test_embed_keeps_a_real_field_with_nyquist_content_real():
    # white noise carries content on the Nyquist lines and corners; the
    # embedded field must stay real and interpolate the coarse samples
    coarse = fk.GridSpec(N=64, L=2.0 * np.pi)
    f = fk.GridField(coarse, np.random.default_rng(0).standard_normal(coarse.shape))
    assert np.abs(fk.forward_transform(f)[coarse.N // 2]).max() > 1e-3
    for N in (128, 256):
        g = fk.embed(f, fk.GridSpec(N=N, L=coarse.L)).samples
        assert np.abs(g.imag).max() <= 1e-13
        step = N // coarse.N
        assert np.abs(g[::step, ::step] - f.samples).max() <= 1e-13


def test_build_test_family_rejects_unknown_kinds(monkeypatch):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    frame = fk.ParabolicFrame(spec)

    def built(*args):
        raise AssertionError("a member was built before the kinds were checked")

    monkeypatch.setattr(fk.families, "plane_wave_member", built)
    with pytest.raises(fk.ParameterError, match="pakcet"):
        fk.build_test_family(spec, frame, bands=(1, 2), kinds=("plane", "pakcet"))
