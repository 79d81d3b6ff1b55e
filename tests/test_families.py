from types import SimpleNamespace

import numpy as np
import pytest

import fiokit as fk
from conftest import refusal_tests


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


def unmasked_packet_spectrum(spec, k, omega):
    """The packet spectrum with exp evaluated at every lattice point."""
    rho0 = fk.families._band_center(spec, k)
    mesh = fk.lattice(spec).mesh
    par = mesh[0] * omega[0] + mesh[1] * omega[1] - rho0
    perp = -mesh[0] * omega[1] + mesh[1] * omega[0]
    arg = -(par**2) / (2 * (rho0 / 4.0) ** 2) - perp**2 / (2 * (np.sqrt(rho0) / 2.0) ** 2)
    return arg, np.exp(arg).astype(complex)


def test_packet_spectra_equal_unmasked_exp(monkeypatch):
    spec = fk.GridSpec(N=256, L=2.0 * np.pi)
    directions = fk.DirectionSet(32)
    shell = below = False
    for k in range(3, 8):
        for omega in directions.omegas[::4]:
            arg, reference = unmasked_packet_spectrum(spec, k, omega)
            # exp is subnormal on [-746, -708.4) down to its +0.0 at about -745.1
            shell |= bool(((arg >= -746.0) & (arg < -708.4)).any())
            below |= bool((arg < -746.0).any())
            assert fk.families._packet_spectrum(spec, k, omega).tobytes() == reference.tobytes()
    assert shell and below

    def members():
        frame = SimpleNamespace(directions=directions)
        fields = [fk.packet_member(spec, k, omega).field for k in range(3, 8)
                  for omega in directions.omegas[::4]]
        fields += [fk.focusing_member(spec, k, frame).field for k in range(3, 8)]
        return [f.samples.tobytes() for f in fields]

    built = members()
    monkeypatch.setattr(fk.families, "_packet_spectrum", lambda *a: unmasked_packet_spectrum(*a)[1])
    assert built == members()


globals().update(refusal_tests(__name__))
