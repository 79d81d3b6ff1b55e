"""Seeded families of test fields for operator probing.

Members are built spectrally (plane waves at band centers, parabolic
wave packets with 2^{-k} x 2^{-k/2} spatial extents, random
band-limited noise, focusing superpositions over directions) and
unit-normalized in L^2.  Because every member is band-limited, a
member generated at one grid size can be embedded exactly on a finer
grid with the same period, which is how cross-resolution stability is
measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import LittlewoodPaleyFamily, _family
from .errors import DegenerateInputError, ParameterError, _rng
from .grid import GridField, GridSpec, _check_specs, forward_transform, inverse_transform, lattice, lp_norm
from .parabolic import ParabolicFrame


@dataclass
class FamilyMember:
    name: str
    band: int
    field: GridField


def _normalize(spec: GridSpec, spectrum: np.ndarray) -> GridField:
    f = inverse_transform(spectrum, spec)
    norm = lp_norm(f, 2.0)
    if norm < 1e-14:
        raise DegenerateInputError("test member is numerically zero")
    return GridField(spec, f.samples / norm)


def _band_center(spec: GridSpec, k: int) -> float:
    # center magnitude 3*2^{k-2}, clipped inside the axis Nyquist range
    return min(3.0 * 2.0 ** (k - 2), 0.75 * np.pi * spec.N / spec.L)


def plane_wave_member(spec: GridSpec, k: int) -> FamilyMember:
    """e^{i xi0 x} at the lattice point nearest the band-k center."""
    h = spec.xi_spacing
    target = _band_center(spec, k)
    # _band_center keeps i <= 3N/8, inside the axis Nyquist range
    i = max(1, int(round(target / h)))
    spectrum = np.zeros(spec.shape, dtype=complex)
    spectrum[i, 0] = spec.L**spec.n
    return FamilyMember(f"plane_k{k}", k, _normalize(spec, spectrum))


def _packet_spectrum(spec: GridSpec, k: int, omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    rho0 = _band_center(spec, k)
    lat = lattice(spec)
    par = lat.mesh[0] * omega[0] + lat.mesh[1] * omega[1] - rho0
    perp = -lat.mesh[0] * omega[1] + lat.mesh[1] * omega[0]
    s_par = rho0 / 4.0
    s_perp = np.sqrt(rho0) / 2.0
    arg = -(par**2) / (2 * s_par**2) - perp**2 / (2 * s_perp**2)
    # exp is exactly +0.0 below -746 (under half the least subnormal), and
    # numpy's exp runs a slow underflow path there: leave those zeros as made
    spectrum = np.zeros(spec.shape, dtype=complex)
    np.exp(arg, out=spectrum.real, where=arg >= -746.0)
    return spectrum


def packet_member(spec: GridSpec, k: int, omega) -> FamilyMember:
    """Parabolic wave packet: spectral Gaussian centered at rho0*omega,
    width rho0/4 along omega and sqrt(rho0)/2 across."""
    return FamilyMember(f"packet_k{k}", k, _normalize(spec, _packet_spectrum(spec, k, omega)))


def random_band_member(
    spec: GridSpec, k: int, fam: LittlewoodPaleyFamily, rng: np.random.Generator
) -> FamilyMember:
    noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    spectrum = fam.values[k] * noise
    return FamilyMember(f"random_k{k}", k, _normalize(spec, spectrum))


def focusing_member(spec: GridSpec, k: int, frame: ParabolicFrame) -> FamilyMember:
    """Sum of unit-L^2 packets (Parseval-scaled spectra) over every fourth frame direction."""
    spectrum = np.zeros(spec.shape, dtype=complex)
    for omega in frame.directions.omegas[::4]:
        g = _packet_spectrum(spec, k, omega)
        spectrum += g * (spec.L ** (spec.n / 2) / np.linalg.norm(g))
    return FamilyMember(f"focus_k{k}", k, _normalize(spec, spectrum))


def _check_band(k: int, J_max: int) -> None:
    if not (0 <= k <= J_max):
        raise ParameterError(f"band {k} outside the grid's dyadic range")


def build_test_family(
    spec: GridSpec,
    frame: ParabolicFrame,
    bands,
    kinds=("plane", "packet", "random", "focus"),
    seed: int = 0,
    fam: LittlewoodPaleyFamily | None = None,
) -> list[FamilyMember]:
    unknown = set(kinds) - {"plane", "packet", "random", "focus"}
    if unknown:
        raise ParameterError(f"unknown member kinds {sorted(unknown)}")
    rng = _rng(seed)
    _check_specs(frame.spec, spec)
    fam = _family(fam, spec)
    e1 = np.array([1.0, 0.0])
    members = []
    for k in bands:
        _check_band(k, fam.J_max)
        if "plane" in kinds:
            members.append(plane_wave_member(spec, k))
        if "packet" in kinds:
            members.append(packet_member(spec, k, e1))
        if "random" in kinds:
            members.append(random_band_member(spec, k, fam, rng))
        if "focus" in kinds:
            members.append(focusing_member(spec, k, frame))
    return members


def embed(f: GridField, fine: GridSpec) -> GridField:
    """Exact embedding of a band-limited field on a finer grid with the
    same period: lattice spectra agree frequency-by-frequency, except that
    Nyquist-line content is shared evenly between its aliases +-N/2."""
    coarse = f.spec
    if fine.L != coarse.L or fine.n != coarse.n or fine.N < coarse.N:
        raise ParameterError("target grid must refine the source grid (same period)")
    src = np.fft.fftshift(forward_transform(f))
    if fine.N > coarse.N:
        # a coarse Nyquist coefficient at -N/2 aliases +N/2 too: split it
        # evenly over both (a corner over four), so a real field stays real
        for axis in range(coarse.n):
            half = 0.5 * np.take(src, [0], axis=axis)
            src = np.concatenate([half, np.take(src, range(1, coarse.N), axis=axis), half], axis)
    dst = np.zeros(fine.shape, dtype=complex)
    off = (fine.N - coarse.N) // 2
    dst[(slice(off, off + src.shape[0]),) * fine.n] = src
    return inverse_transform(np.fft.ifftshift(dst), fine)
