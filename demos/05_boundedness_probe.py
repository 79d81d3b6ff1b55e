"""Empirical probing of operator boundedness on the directional spaces.

Applies a calibrated rough symbol (r = 2 > n-1, delta = 1/2) to a
seeded family of test fields (plane waves, parabolic wave packets,
random band-limited noise, focusing superpositions) and reports the
ratio of output to input directional norms per band.  A flat ratio
profile across bands is the desk-scale signature of boundedness.  At
p = 2, s = 0 the probe is set beside sqrt(2) times a power-iteration
estimate of an L^2 operator norm that bounds every probe ratio.  Power
iteration estimates that norm from below and may stop at its iteration
cap, so the printed number is a lower estimate of the bound, not a
certified upper bound.
"""

import numpy as np

import fiokit as fk

spec = fk.GridSpec(N=128, L=2.0 * np.pi)
frame = fk.ParabolicFrame(spec)
fam = fk.build_lp_family(spec)
r, delta = 2.0, 0.5
chirp = fk.preset_rough_chirp(spec, r, delta, seed=0, chi=fam)
family = fk.build_test_family(spec, frame, bands=(3, 4, 5, 6), fam=fam)
print(f"grid {spec.N}x{spec.N}, {frame.n_directions} directions, "
      f"{len(family)} test fields, symbol class C^{r}_* S^0_(1,{delta})")

for p in (2.0, 4.0):
    bud = fk.budget(r, delta, p, spec.n)
    s = bud.admissible_s()
    rep = fk.operator_norm_probe(chirp, s + bud.tau, s, p, frame, family, budget=bud)
    print(f"\np = {p}, s = {s:.3f} (tau = {bud.tau}):")
    for k, ratio in sorted(rep.band_profile().items()):
        print(f"  band {k}: max ratio = {ratio:.4f}")
    print(f"  sup ratio = {rep.sup_ratio:.4f}, trend slope = {rep.trend_slope():+.4f}")

# cross-check at p = 2, s = 0 against the power-iteration estimate
rep0 = fk.operator_norm_probe(chirp, 0.0, 0.0, 2.0, frame, family)
print(f"\np = 2, s = 0 cross-check: probe sup = {rep0.sup_ratio:.4f}, "
      f"L^2 bound estimate (from below) {rep0.spectral_bound:.4f}")
