"""Invariance of the directional norms under the half-wave group.

H^p_FIO is the space on which Fourier integral operators of order 0 act
boundedly, with e^{-it|D|} as the model case.  On L^p the same group loses
(n-1)|1/2-1/p| derivatives, so on the focusing test fields its L^p ratio
moves across bands while its directional (hpfio) ratio stays flat.  The
Schrodinger group e^{-it|D|^2} has a phase of degree 2, is not such an
operator, and moves the hpfio ratio too.  Each row gives the range of
||U f|| / ||f|| over bands 3..7 and the least-squares slope of its log2.
"""

import numpy as np

import fiokit as fk

spec = fk.GridSpec(N=256, L=2.0 * np.pi)
frame = fk.ParabolicFrame(spec)
family = fk.build_test_family(spec, frame, bands=(3, 4, 5, 6, 7), kinds=("focus",))
ks = [member.band for member in family]
mags = fk.lattice(spec).mags
groups = [
    ("wave", 0.5, np.exp(-0.5j * mags)),
    ("wave", 1.0, np.exp(-1.0j * mags)),
    ("schrodinger", 1e-3, np.exp(-1e-3j * mags**2)),
    ("schrodinger", 4e-3, np.exp(-4e-3j * mags**2)),
]
print(f"grid {spec.N}x{spec.N}, {frame.n_directions} directions, focusing members k = 3..7\n")
print(f"{'group':<12} {'t':>6} {'p':>5}   {'L^p ratio, k=3 -> 7':<20} {'slope':>7}"
      f"   {'hpfio ratio range':<18} {'slope':>7}")
for name, t, values in groups:
    op = fk.SpectralMultiplier(spec, values)
    for p in (4.0 / 3.0, 4.0):
        lp = [fk.lp_norm(fk.apply_symbol(op, m.field), p) / fk.lp_norm(m.field, p) for m in family]
        rep = fk.operator_norm_probe(op, 0.0, 0.0, p, frame, family)
        ratios = [row["ratio"] for row in rep.rows]
        lp_range = f"{lp[0]:.3f} -> {lp[-1]:.3f}"
        hp_range = f"{min(ratios):.3f}-{max(ratios):.3f}"
        print(f"{name:<12} {t:>6g} {p:>5.3g}   {lp_range:<20} {np.polyfit(ks, np.log2(lp), 1)[0]:+7.3f}"
              f"   {hp_range:<18} {rep.trend_slope():+7.3f}")
