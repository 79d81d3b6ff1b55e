"""The dyadic-parabolic (second dyadic) decomposition.

Each dyadic annulus |xi| ~ 2^k is split into directional sectors of
angular width ~ 2^{-k/2}.  The demo builds the directional frame,
checks the Calderon normalization behind it, reconstructs a high-pass
field from its directional pieces, and shows how the reproducing
multiplier m grows like |xi|^{1/2} (the sector count per annulus).
"""

import numpy as np

import fiokit as fk

spec = fk.GridSpec(N=128, L=2.0 * np.pi)
frame = fk.ParabolicFrame(spec)
print(f"grid: {spec.N}x{spec.N}, max |xi| = {spec.xi_max:.1f}")
print(f"frame directions: {frame.n_directions}")

# Calderon normalization of the radial factor
psi = frame.geometry.psi
worst = 0.0
for rho in np.geomspace(0.1, 100.0, 10):
    s = np.linspace(np.log(0.5 / rho) - 0.05, np.log(2.0 / rho) + 0.05, 4096)
    worst = max(worst, abs(float(np.trapezoid(psi(np.exp(s) * rho) ** 2, s)) - 1.0))
print(f"Calderon normalization deviation: {worst:.2e}")

# reconstruction of a high-pass field from its directional pieces
rng = np.random.default_rng(1)
noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
mask = np.where(fk.lattice(spec).mags >= 0.5, 1.0, 0.0)
g = fk.inverse_transform(mask * noise, spec)
pieces = fk.frame_analyze(g, frame)
rec = fk.frame_synthesize(pieces, frame)
err = np.abs(rec.samples - g.samples).max() / np.abs(g.samples).max()
print(f"frame reconstruction error (high-pass field): {err:.2e}")

# directional energy profile of a single wave packet
member = fk.packet_member(spec, 5, np.array([1.0, 0.0]))
energies = [fk.lp_norm(piece, 2.0) for piece in fk.frame_analyze(member.field, frame)]
top = np.argsort(energies)[-3:][::-1]
print("\nwave packet aligned with direction 0: top directional energies")
for l in top:
    print(f"  direction {l:3d} (angle {360.0 * l / frame.n_directions:6.1f} deg): {energies[l]:.4f}")

# growth of the reproducing multiplier along the axis
axis = fk.lattice(spec).axis
print("\nreproducing multiplier m along the frequency axis (expect ~ rho^0.25..0.3):")
for i in (4, 8, 16, 32, 48):
    print(f"  |xi| = {axis[i]:5.1f}: m = {frame.m.values[i, 0]:.4f}")
