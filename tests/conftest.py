import struct

import numpy as np
import pytest

import fiokit as fk
from fiokit.grid import bessel_values


@pytest.fixture(scope="session")
def spec64():
    return fk.GridSpec(N=64)


@pytest.fixture(scope="session")
def fam64(spec64):
    return fk.build_lp_family(spec64)


@pytest.fixture(scope="session")
def frame64(spec64):
    return fk.ParabolicFrame(spec64)


@pytest.fixture(scope="session")
def spec_fine():
    # finer frequency lattice: unit period multiple, rich dyadic range
    return fk.GridSpec(N=256, L=2.0 * np.pi)


@pytest.fixture(scope="session")
def fam_fine(spec_fine):
    return fk.build_lp_family(spec_fine)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(spec, rng, real=False):
    samples = rng.standard_normal(spec.shape)
    if not real:
        samples = samples + 1j * rng.standard_normal(spec.shape)
    return fk.GridField(spec, samples)


def plane_wave(spec, xi0):
    x1, x2 = spec.x_mesh()
    return fk.GridField(spec, np.exp(1j * (xi0[0] * x1 + xi0[1] * x2)))


def band_limited(spec, rng, lo, hi):
    noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    mags = fk.lattice(spec).mags
    mask = np.where((mags > lo) & (mags < hi), 1.0, 0.0)
    return fk.inverse_transform(mask * noise, spec)


def high_pass(spec, rng):
    f = random_field(spec, rng)
    mask = np.where(fk.lattice(spec).mags >= 0.5, 1.0, 0.0)
    return fk.inverse_transform(mask * fk.forward_transform(f), spec)


def hpfio_by_definition(f, s, p, frame):
    """The directional norm as defined: one full-grid inverse transform
    and one L^p norm per direction."""
    spec = f.spec
    spectrum = fk.forward_transform(f)
    q = fk.falling(fk.lattice(spec).mags, 2.0, 4.0)
    low_part = fk.lp_norm(fk.inverse_transform(q * spectrum, spec), p)
    bess = bessel_values(spec, s).ravel()
    flat = spectrum.ravel()
    total = 0.0
    for l in range(frame.n_directions):
        idx, vals = frame.sparse(l)
        g = np.zeros(flat.shape, dtype=complex)
        g[idx] = vals * bess[idx] * flat[idx]
        gl = fk.inverse_transform(g.reshape(spec.shape), spec)
        total += frame.directions.weights[l] * fk.lp_norm(gl, p) ** p
    return low_part + total ** (1.0 / p)


def write_fiof_n3(path):
    """A well-formed FIOF file of a constant field on an n = 3, N = 16 grid,
    which GridSpec refuses, so it is written from the header format directly."""
    header = struct.pack("<III d", 1, 3, 16, 2.0 * np.pi)
    path.write_bytes(b"FIOF" + header + np.ones(16**3, dtype="<c16").tobytes())
    return path
