"""Acceptance suite: eleven criteria, one printed PASS/FAIL line each.

Grids are chosen per criterion so that every frequency annulus involved
is lattice-resolvable and no spectral product wraps around the torus.
Run with -s to see the per-criterion lines.
"""

import numpy as np
import pytest
from scipy.integrate import trapezoid

import fiokit as fk
from conftest import band_limited, random_field


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def stack_2pi():
    """(spec, frame) at period 2*pi for N = 64, 128, 256 — same lattice
    spacing 1, so coarse fields embed exactly into the finer grids."""
    out = []
    for N in (64, 128, 256):
        spec = fk.GridSpec(N=N, L=2.0 * np.pi)
        out.append((spec, fk.ParabolicFrame(spec)))
    return out


@pytest.fixture(scope="module")
def frames_32pi():
    out = []
    for N in (64, 128, 256):
        spec = fk.GridSpec(N=N, L=32.0 * np.pi)
        out.append(fk.ParabolicFrame(spec))
    return out


# ---------------------------------------------------------------------------
# 1. exact identities
# ---------------------------------------------------------------------------


def test_criterion_01_exact_identities(spec64, fam64, frame64, rng):
    worst = {}

    total = sum(fam64.values)
    worst["partition"] = float(np.abs(total - 1.0).max())

    f = random_field(spec64, rng)
    back = fk.inverse_transform(fk.forward_transform(f), spec64)
    worst["round-trip"] = float(
        np.abs(back.samples - f.samples).max() / np.abs(f.samples).max()
    )

    spec_s = fk.GridSpec(N=64, L=8.0 * np.pi)
    fam_s = fk.build_lp_family(spec_s)
    chirp = fk.preset_rough_chirp(spec_s, 2.0, 0.5, seed=1, chi=fam_s)
    dense = chirp.densify()
    split_resid = 0.0
    for gamma in (0.5, 0.625, 0.75, 1.0):
        split = fk.smooth_split(dense, gamma, fam_s)
        for eta in (np.array([0.4, 0.1]), np.array([2.0, 1.0]), np.array([5.0, -1.0])):
            ref = dense.eval(eta)
            resid = split.sharp.eval(eta) + split.flat.eval(eta) - ref
            scale = max(float(np.abs(ref).max()), 1e-300)
            split_resid = max(split_resid, float(np.abs(resid).max()) / scale)
    worst["smoothing-split"] = split_resid

    b = fk.GridField(spec_s, rng.standard_normal(spec_s.shape))
    g = random_field(spec_s, rng)
    total_pp = (
        fk.paraproduct_hh(b, g, fam_s).samples
        + fk.paraproduct_hl(b, g, fam_s).samples
        + fk.paraproduct_lh(b, g, fam_s).samples
    )
    prod = b.samples * g.samples
    worst["paraproduct"] = float(np.abs(total_pp - prod).max() / np.abs(prod).max())

    h = band_limited(spec64, rng, 0.5, spec64.xi_max)
    rec = fk.frame_synthesize(fk.frame_analyze(h, frame64), frame64)
    worst["frame-reconstruction"] = float(
        np.abs(rec.samples - h.samples).max() / np.abs(h.samples).max()
    )

    tols = {
        "partition": 1e-12,
        "round-trip": 1e-12,
        "smoothing-split": 1e-12,
        "paraproduct": 1e-12,
        "frame-reconstruction": 1e-10,
    }
    ok = all(worst[k] <= tols[k] for k in tols)
    detail = "  ".join(f"{k}={worst[k]:.2e}" for k in tols)
    report_line(1, "exact identities", ok, detail)


# ---------------------------------------------------------------------------
# 2. Calderon normalization
# ---------------------------------------------------------------------------


def test_criterion_02_calderon_normalization(frame64):
    psi = frame64.geometry.psi
    worst = 0.0
    for rho in np.geomspace(0.03, 300.0, 20):
        s = np.linspace(np.log(0.5 / rho) - 0.05, np.log(2.0 / rho) + 0.05, 4096)
        integral = float(trapezoid(psi(np.exp(s) * rho) ** 2, s))
        worst = max(worst, abs(integral - 1.0))
    report_line(2, "Calderon normalization", worst <= 1e-10, f"worst={worst:.2e} at 20 radii")


# ---------------------------------------------------------------------------
# 3. support theorems as hard zeros
# ---------------------------------------------------------------------------


def test_criterion_03_support_theorems(frame64):
    rng = np.random.default_rng(42)
    # directional sector support at every lattice point, 8 directions
    pts = fk.lattice(frame64.spec).points()
    mags = fk.lattice(frame64.spec).mags.ravel()
    sector_leak = 0.0
    step = max(1, frame64.n_directions // 8)
    for l in range(0, frame64.n_directions, step):
        vals = np.zeros(len(pts))
        idx, v = frame64.sparse(l)
        vals[idx] = v
        omega = frame64.directions.omegas[l]
        safe = mags > 0
        unit = pts[safe] / mags[safe][:, None]
        d = np.hypot(unit[:, 0] - omega[0], unit[:, 1] - omega[1])
        outside = (mags[safe] < 0.125) | (d > 2.0 / np.sqrt(mags[safe]))
        sector_leak = max(sector_leak, float(np.abs(vals[safe][outside]).max()))
        sector_leak = max(sector_leak, abs(float(vals[0])))

    # product band support: compliant symbols at k = 4, 6, 8, each on a
    # grid where the F(a_k) annulus [2^{(k-2)/2}/4, 2^{0.625 k - 3}] holds
    # lattice points and the product spectrum cannot wrap
    gamma = 0.625
    grids = {4: (256, 16.0 * np.pi), 6: (512, 8.0 * np.pi), 8: (1024, 4.0 * np.pi)}
    leaks = {}
    compliant_ok = True
    for k, (N, L) in grids.items():
        spec = fk.GridSpec(N=N, L=L)
        lo_a = 0.25 * 2.0 ** ((k - 2) / 2.0) * 1.05
        hi_a = 2.0 ** (k * gamma - 3.0) * 0.95
        a_k = band_limited(spec, rng, lo_a, hi_a)
        f_k = band_limited(spec, rng, 2.0 ** (k - 1) * 0.6, 2.0 ** (k - 1) * 1.7)
        ok_k, rep = fk.verify_band_support(a_k, f_k, k, gamma=gamma)
        compliant_ok = compliant_ok and ok_k and rep["precondition_ok"]
        leaks[k] = rep["leak"]

    # adversarial: F(a_k) at |xi| ~ 11, far above the allowed upper edge,
    # pushes product content below 2^{k-3}
    spec6 = fk.GridSpec(N=512, L=8.0 * np.pi)
    a_bad = band_limited(spec6, rng, 10.0, 12.0)
    f6 = band_limited(spec6, rng, 19.2, 48.0)
    ok_bad, rep_bad = fk.verify_band_support(a_bad, f6, 6, gamma=gamma)

    ok = sector_leak == 0.0 and compliant_ok and not ok_bad and rep_bad["leak"] > 1e-9
    detail = (
        f"sector_leak={sector_leak:.1e}  "
        + "  ".join(f"k{k}_leak={leaks[k]:.1e}" for k in sorted(leaks))
        + f"  adversarial_leak={rep_bad['leak']:.2e}"
    )
    report_line(3, "support theorems (hard zeros)", ok, detail)


# ---------------------------------------------------------------------------
# 4. c_sigma closed form
# ---------------------------------------------------------------------------


def test_criterion_04_c_sigma_closed_form():
    flat = (2.0 * np.pi) ** -0.5
    rel = abs(fk.c_sigma(16.0) - flat) / flat
    report_line(4, "c_16 closed form", rel <= 1e-8, f"relative error {rel:.2e}")


# ---------------------------------------------------------------------------
# 5. anisotropic derivative bounds, grid-stable
# ---------------------------------------------------------------------------


def test_criterion_05_anisotropic_stability(frames_32pi):
    reports = [fk.anisotropic_bound_check(fr, alpha_max=2) for fr in frames_32pi]
    worst = 0.0
    for coarse, fine in zip(reports, reports[1:]):
        for alpha in coarse:
            lo, hi = sorted((coarse[alpha], fine[alpha]))
            if lo > 0:
                worst = max(worst, hi / lo)
    report_line(
        5, "anisotropic bounds stable 64->128->256", worst <= 1.5,
        f"worst doubling ratio {worst:.3f}"
    )


# ---------------------------------------------------------------------------
# 6. L2 equivalence of the directional norm
# ---------------------------------------------------------------------------


def test_criterion_06_l2_equivalence(stack_2pi):
    rng = np.random.default_rng(7)
    coarse_spec = stack_2pi[0][0]
    fields = [band_limited(coarse_spec, rng, 2.0, 12.0) for _ in range(50)]
    endpoints = []
    for spec, frame in stack_2pi:
        fs = fields if spec.N == coarse_spec.N else [fk.embed(f, spec) for f in fields]
        ratios = [fk.hpfio_norm(f, 0.0, 2.0, frame) / fk.lp_norm(f, 2.0) for f in fs]
        endpoints.append((min(ratios), max(ratios)))
    drift = 0.0
    for (lo_c, hi_c), (lo_f, hi_f) in zip(endpoints, endpoints[1:]):
        drift = max(drift, abs(lo_f - lo_c) / lo_c, abs(hi_f - hi_c) / hi_c)
    detail = "  ".join(f"N={s.N}:[{lo:.3f},{hi:.3f}]"
                       for (s, _), (lo, hi) in zip(stack_2pi, endpoints))
    report_line(6, "L2 equivalence band stable", drift <= 0.2,
                f"{detail}  drift={drift:.3f}")


# ---------------------------------------------------------------------------
# 7. Sobolev embedding ratios at p = 4
# ---------------------------------------------------------------------------


def test_criterion_07_sobolev_embedding(stack_2pi):
    p = 4.0
    s_p = fk.sobolev_s(p, 2)
    coarse_spec, coarse_frame = stack_2pi[0]
    fam = fk.build_lp_family(coarse_spec)
    family = fk.build_test_family(coarse_spec, coarse_frame, bands=(2, 3, 4, 5), fam=fam)
    sups = []
    for spec, frame in stack_2pi:
        r1 = r2 = 0.0
        for member in family:
            f = member.field if spec.N == coarse_spec.N else fk.embed(member.field, spec)
            fio = fk.hpfio_norm(f, 0.0, p, frame)
            r1 = max(r1, fio / fk.classical_norm(f, s_p, p))
            r2 = max(r2, fk.classical_norm(f, -s_p, p) / fio)
        sups.append((r1, r2))
    drift = 0.0
    for (a_c, b_c), (a_f, b_f) in zip(sups, sups[1:]):
        drift = max(drift, abs(a_f - a_c) / a_c, abs(b_f - b_c) / b_c)
    bounded = all(np.isfinite(v) and v > 0 for pair in sups for v in pair)
    detail = "  ".join(
        f"N={s.N}:({a:.3f},{b:.3f})" for (s, _), (a, b) in zip(stack_2pi, sups)
    )
    report_line(7, "Sobolev embedding ratios stable", bounded and drift <= 0.2,
                f"{detail}  drift={drift:.3f}")


# ---------------------------------------------------------------------------
# 8. dense/separable agreement and the certified p = 2 bound
# ---------------------------------------------------------------------------


def test_criterion_08_agreement_and_certified_bound(spec64, fam64, frame64, rng):
    spec_s = fk.GridSpec(N=64, L=8.0 * np.pi)
    fam_s = fk.build_lp_family(spec_s)
    chirp_s = fk.preset_rough_chirp(spec_s, 1.5, 0.5, seed=2, chi=fam_s)
    g = random_field(spec_s, rng)
    sep = fk.apply_separable(chirp_s, g)
    dense = fk.apply_dense(chirp_s.densify(), g)
    agree = float(np.abs(sep.samples - dense.samples).max() / np.abs(sep.samples).max())

    chirp = fk.preset_rough_chirp(spec64, 1.5, 0.5, seed=2, chi=fam64)
    family = fk.build_test_family(spec64, frame64, bands=(1, 2, 3), fam=fam64)
    rep = fk.operator_norm_probe(chirp, 0.0, 0.0, 2.0, frame64, family)
    certified = rep.spectral_bound is not None and (
        rep.sup_ratio <= rep.spectral_bound * (1 + 1e-6)
    )
    ok = agree <= 1e-10 and certified
    report_line(
        8, "dense/separable + certified L2 bound", ok,
        f"agreement={agree:.2e}  probe_sup={rep.sup_ratio:.4f}  "
        f"bound={rep.spectral_bound:.4f}"
    )


# ---------------------------------------------------------------------------
# 9. flagship boundedness trend
# ---------------------------------------------------------------------------


def test_criterion_09_flagship_boundedness_trend():
    spec = fk.GridSpec(N=512, L=2.0 * np.pi)
    frame = fk.ParabolicFrame(spec)
    fam = fk.build_lp_family(spec)
    chirp = fk.preset_rough_chirp(spec, 2.0, 0.5, seed=0, chi=fam)
    family = fk.build_test_family(spec, frame, bands=(4, 5, 6, 7, 8), fam=fam)
    slopes = {}
    ok = True
    for p in (4.0 / 3.0, 2.0, 4.0):
        bud = fk.budget(2.0, 0.5, p, 2)
        s = bud.admissible_s()
        rep = fk.operator_norm_probe(chirp, s + bud.tau, s, p, frame, family, budget=bud)
        slope = rep.trend_slope()
        slopes[p] = slope
        ok = ok and -0.2 <= slope <= 0.2
    detail = "  ".join(f"p={p:.3g}: slope={sl:+.3f}" for p, sl in slopes.items())
    report_line(9, "flagship boundedness trend (r=2, d=1/2, bands 4..8)", ok, detail)


# ---------------------------------------------------------------------------
# 10. budget arithmetic
# ---------------------------------------------------------------------------


def test_criterion_10_budget_arithmetic():
    b1 = fk.budget(2.0, 0.0, 4.0, 2)
    case1 = b1.tau == 0.0 and b1.gamma == 0.625 and b1.sigma == 0.0
    b2 = fk.budget(2.0, 0.0, 2.0, 2)
    case2 = b2.tau == 0.0 and b2.gamma == 0.5 and b2.sigma == 0.0
    b3 = fk.budget(0.5, 0.5, 4.0, 2)
    case3 = b3.tau == 0.125 and b3.gamma == 0.75 and b3.rho == 0.125
    ok = case1 and case2 and case3
    report_line(
        10, "budget arithmetic (unit equalities)", ok,
        f"supercritical={case1} p2={case2} subcritical={case3}"
    )


# ---------------------------------------------------------------------------
# 11. invariance under the half-wave group
# ---------------------------------------------------------------------------


def lp_ratio_slope(op, family, p):
    """Least-squares slope of log2(||op f||_p / ||f||_p) against band index."""
    ratios = [fk.lp_norm(fk.apply_symbol(op, m.field), p) / fk.lp_norm(m.field, p) for m in family]
    return float(np.polyfit([m.band for m in family], np.log2(ratios), 1)[0])


def test_criterion_11_half_wave_invariance(stack_2pi):
    # FIOs of order 0, with e^{it|D|} the model case, act boundedly on
    # H^p_FIO, while on L^p the half-wave group loses (n-1)|1/2-1/p|
    # derivatives.  The Schrodinger group has a phase of degree 2, is not
    # such an FIO, and must move the directional ratios.
    spec, frame = stack_2pi[2]
    family = fk.build_test_family(spec, frame, bands=(3, 4, 5, 6, 7), kinds=("focus",))
    mags = fk.lattice(spec).mags
    wave = fk.SpectralMultiplier(spec, np.exp(-0.5j * mags))
    schrodinger = fk.SpectralMultiplier(spec, np.exp(-4e-3j * mags**2))
    ok, parts = True, []
    for p in (4.0 / 3.0, 4.0):
        wave_slope = fk.operator_norm_probe(wave, 0.0, 0.0, p, frame, family).trend_slope()
        lp_slope = lp_ratio_slope(wave, family, p)
        schr_slope = fk.operator_norm_probe(schrodinger, 0.0, 0.0, p, frame, family).trend_slope()
        ok = ok and abs(wave_slope) <= 0.05 and abs(lp_slope) >= 0.1 and abs(schr_slope) > 0.05
        parts.append(f"p={p:.3g}: wave hpfio={wave_slope:+.3f} L^p={lp_slope:+.3f} "
                     f"schrodinger hpfio={schr_slope:+.3f}")
    report_line(11, "half-wave invariance (N=256, focus k=3..7, t=1/2)", ok, "  ".join(parts))
