"""Periodic grids, Fourier transforms and multiplier operators.

Conventions match the continuum: the forward transform carries the
cell volume (L/N)^n, the inverse carries (2pi)^(-n) times the
frequency-cell volume (2pi/L)^n.  A plane wave exp(i xi0.x) on the
lattice therefore has a single spectral entry of value L^n, and the
round trip is the identity to roundoff.  Every transform is numpy.fft's,
written into an explicit out= buffer; the checked pair runs on the in-place
pair.  No other module calls a transform or sets numpy's error state (_quiet).
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InvalidInputError, ParameterError, _integer


# a grid as a config or a symbol descriptor writes it (errors._read); GridSpec checks it
_GRID_SCHEMA = {"n": int, "N": int, "L": float}


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on [0, L)^n, N samples per axis; n = 2 is checked here only."""

    n: int = 2
    N: int = 128
    L: float = 2.0 * np.pi * 16.0

    def __post_init__(self):
        for name in ("n", "N"):
            _integer(name, getattr(self, name), 1)
        if isinstance(self.L, bool) or not isinstance(self.L, numbers.Real):
            raise ParameterError(f"period L={self.L!r} must be a real number")
        if self.n != 2:
            raise ParameterError(f"dimension n={self.n} must be 2: fiokit computes in the plane")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ParameterError(f"N={self.N} must be a power of two >= 16")
        L = float(self.L)
        try:  # the powers of L that the transforms and the lattice take
            powers = (L, L**self.n, L**-self.n, (L / self.N) ** self.n, self.n * (np.pi * self.N / L) ** 2)
        except (OverflowError, ZeroDivisionError):
            powers = (0.0,)
        if not all(0.0 < v < np.inf for v in powers):
            raise ParameterError(f"period L={self.L} must be > 0, with L^n, L^-n, dx^n and "
                                 "n (pi N/L)^2 finite and > 0")

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @property
    def xi_spacing(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def xi_max(self) -> float:
        """Largest lattice frequency magnitude (Nyquist corner)."""
        return np.pi * self.N * np.sqrt(self.n) / self.L

    def x_axis(self) -> np.ndarray:
        return np.arange(self.N) * self.dx

    def x_mesh(self) -> tuple:
        return np.meshgrid(*([self.x_axis()] * self.n), indexing="ij")


class FrequencyLattice:
    """Frequencies xi_k = 2 pi k / L per axis, in FFT (unshifted) order."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.axis = 2.0 * np.pi * np.fft.fftfreq(spec.N, d=spec.dx)
        mesh = np.meshgrid(*([self.axis] * spec.n), indexing="ij")
        self.mesh = mesh
        self.mags = np.sqrt(sum(m * m for m in mesh))
        for a in (self.axis, *mesh, self.mags):  # cached per grid and shared: read-only
            a.flags.writeable = False

    def points(self) -> np.ndarray:
        """All lattice frequencies as an (N^n, n) array."""
        return np.stack([m.ravel() for m in self.mesh], axis=-1)


@lru_cache(maxsize=32)
def lattice(spec: GridSpec) -> FrequencyLattice:
    return FrequencyLattice(spec)


@dataclass
class GridField:
    """Complex samples of a function on a periodic grid."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != self.spec.shape:
            raise InvalidInputError(
                f"sample shape {self.samples.shape} != grid shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise InvalidInputError("field contains non-finite samples")

    def __add__(self, other: "GridField") -> "GridField":
        _check_specs(self.spec, other.spec)
        return GridField(self.spec, self.samples + other.samples)

    def __sub__(self, other: "GridField") -> "GridField":
        _check_specs(self.spec, other.spec)
        return GridField(self.spec, self.samples - other.samples)

    def __mul__(self, c) -> "GridField":
        return GridField(self.spec, self.samples * c)

    __rmul__ = __mul__


@dataclass
class SpectralMultiplier:
    """Scalar symbol tabulated on the frequency lattice (FFT order)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.spec.shape:
            raise InvalidInputError("multiplier shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("multiplier contains non-finite values")


def _check_specs(a: GridSpec, b: GridSpec):
    if a != b:
        raise DimensionError(f"grid specs differ: {a} vs {b}")


# numpy reports IEEE overflow and invalid values as a RuntimeWarning.  Each function
# that may overflow runs under this one state, and a non-finite result is refused
# where it is used (GridField, norms._finite).  Decorator only: numpy >= 2.0 sets the
# state per call and thread, and refuses to enter a shared instance twice with `with`.
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def _sq_sum(w: np.ndarray, weight=None) -> float:
    """Sum of weight |w|^2: einsum row sums, then their pairwise sum; no BLAS, whose threaded
    sums change their last bits with the thread count.  inf or nan, unwarned, on overflow."""
    if weight is None:  # einsum's two-operand loop on w's float view is the fast one
        v = np.ascontiguousarray(w).view(float)
        return float(np.einsum("ij,ij->i", v, v).sum())
    return float(sum(np.einsum("ij,ij,ij->i", weight, x, x) for x in (w.real, w.imag)).sum())


def forward_transform(f: GridField) -> np.ndarray:
    """Continuum-normalized DFT (numpy.fft): hat f(xi) = (L/N)^n sum_x e^{-i x.xi} f(x)."""
    return _forward_in_place(np.array(f.samples), f.spec)


def inverse_transform(spectrum: np.ndarray, spec: GridSpec) -> GridField:
    """Inverse with (2pi)^{-n} (2pi/L)^n Riemann weight; exact round trip.
    A non-finite spectrum gives non-finite samples, which GridField rejects."""
    spectrum = np.array(spectrum, dtype=complex)
    if spectrum.shape != spec.shape:
        raise InvalidInputError("spectrum shape does not match grid")
    return GridField(spec, _inverse_in_place(spectrum, spec))


@_quiet
def _band_sum(terms, x: np.ndarray, scale: float) -> np.ndarray:
    """scale * Sum w * F^{-1}(u x) over (u, w) in terms, F^{-1} the unnormalised numpy.fft
    inverse.  Every transform runs in place on one scratch grid, weighted and summed into
    the result, which is scaled once.  A finished term is released before terms builds the
    next, so a generator's fresh arrays never live two at a time."""
    out = np.zeros(x.shape, dtype=complex)
    # fresh grids per term took two N = 128 certificates 0.89-0.99 -> 1.31-1.35 s on 2 vCPUs
    scratch = np.empty_like(out)
    for u, w in terms:
        part = np.fft.ifftn(np.multiply(u, x, out=scratch), norm="forward", out=scratch)
        part *= w
        out += part
        del u, w, part
    out *= scale
    return out


@_quiet
def _forward_in_place(samples: np.ndarray, spec: GridSpec) -> np.ndarray:
    """forward_transform's spectrum, computed in samples' own memory and not checked."""
    out = np.fft.fftn(samples, out=samples)
    out *= spec.cell_volume
    return out


@_quiet
def _inverse_in_place(spectrum: np.ndarray, spec: GridSpec) -> np.ndarray:
    """inverse_transform's samples, computed in spectrum's own memory and not checked."""
    out = np.fft.ifftn(spectrum, norm="forward", out=spectrum)
    out *= spec.L**-spec.n
    return out


@_quiet
def _line_inverse(part: np.ndarray, lines: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Unnormalised 2-D inverse of grid = part on rows `lines`, 0 elsewhere; overwrites
    part and grid."""
    grid.fill(0.0)
    grid[lines] = np.fft.ifft(part, axis=1, norm="forward", out=part)
    return np.fft.ifft(grid, axis=0, norm="forward", out=grid)


def apply_multiplier(f: GridField, m: SpectralMultiplier) -> GridField:
    _check_specs(f.spec, m.spec)
    return inverse_transform(m.values * forward_transform(f), f.spec)


def bessel_values(spec: GridSpec, s: float) -> np.ndarray:
    return (1.0 + lattice(spec).mags ** 2) ** (s / 2.0)


@_quiet
def _bessel_weighted(spec: GridSpec, s: float, spectrum: np.ndarray) -> np.ndarray:
    """<xi>^s spectrum, multiplied only where spectrum != 0, so that a weight
    that overflows to inf off f^'s support leaves 0 there, not inf * 0 = nan.
    Overflow warns nowhere: the result is inf or nan exactly where a weight
    overflowed on the support, and the caller refuses it."""
    return np.multiply(bessel_values(spec, s), spectrum, out=np.zeros_like(spectrum),
                       where=spectrum != 0)


def bessel_potential(f: GridField, s: float) -> GridField:
    """<D>^s f, the Bessel potential of order s."""
    if not np.isfinite(s):
        raise ParameterError("smoothness s must be finite")
    spectrum = _bessel_weighted(f.spec, s, forward_transform(f))
    if not np.isfinite(spectrum).all():
        raise ParameterError(f"smoothness s={s}: <D>^s f overflows on this field")
    return inverse_transform(spectrum, f.spec)


def _check_p(p: float):
    """The one rule on an exponent p, for every norm, budget and probe."""
    if not (1.0 < p < np.inf):
        raise ParameterError(f"p={p} must lie in (1, inf)")


@_quiet
def lp_norm(f: GridField, p: float) -> float:
    """Riemann-sum L^p norm, p strictly inside (1, inf); inf, without a warning, on overflow."""
    _check_p(p)
    return float((np.abs(f.samples) ** p).sum() ** (1.0 / p) * f.spec.dx ** (f.spec.n / p))


@_quiet
def l2_inner(f: GridField, g: GridField) -> complex:
    _check_specs(f.spec, g.spec)
    return complex((f.samples * np.conj(g.samples)).sum() * f.spec.cell_volume)


# ---------------------------------------------------------------------------
# FIOF field file format: magic "FIOF", u32 version, u32 n, u32 N, f64 L
# (little-endian), then N^n complex samples as interleaved f64 pairs,
# row-major.
# ---------------------------------------------------------------------------

_FIOF_MAGIC = b"FIOF"
_FIOF_VERSION = 1


def write_fiof(path, f: GridField) -> None:
    with open(path, "wb") as fh:
        fh.write(_FIOF_MAGIC)
        fh.write(struct.pack("<III d", _FIOF_VERSION, f.spec.n, f.spec.N, f.spec.L))
        data = np.ascontiguousarray(f.samples, dtype=np.complex128)
        fh.write(data.astype("<c16").tobytes())


def read_fiof(path) -> GridField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FIOF_MAGIC:
            raise InvalidInputError(f"{path}: not a FIOF file")
        try:
            version, n, N, L = struct.unpack("<III d", fh.read(20))
            if version != _FIOF_VERSION:
                raise InvalidInputError(f"{path}: unsupported FIOF version {version}")
            spec = GridSpec(n=n, N=N, L=L)
        except (struct.error, ParameterError) as exc:
            raise InvalidInputError(f"{path}: bad header: {exc}") from None
        # the payload's length is checked before any of it is read
        size, left = 16 * N**n, os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise InvalidInputError(f"{path}: truncated payload: {left} of {size} bytes")
        if left > size:
            raise InvalidInputError(f"{path}: {left - size} bytes after the {size}-byte payload")
        raw = np.frombuffer(fh.read(size), dtype="<c16")
        return GridField(spec, raw.reshape(spec.shape).astype(complex))
