"""The three benchmark workloads.

Each workload has a set-up (grids, LP families, frames, symbols, test
families and input fields, all made from the seed), a pass (the timed
call sequence into fiokit, returning its outputs and the wall time of
each named stage as perf_counter start and end) and a check of a
pass's outputs.  fiokit is always
reached through the package namespace (`fk.name`), so a traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import fiokit as fk

TWO_PI = 2.0 * np.pi
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _random_field(spec, rng, real=False):
    samples = rng.standard_normal(spec.shape)
    if not real:
        samples = samples + 1j * rng.standard_normal(spec.shape)
    return fk.GridField(spec, samples)


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / max(float(np.abs(b).max()), 1e-300))


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@dataclass
class Workload:
    setup: Callable  # (seed, workdir) -> state
    run: Callable  # state -> (outputs, {stage: (start, end)})
    check: Callable  # (state, outputs, references) -> [(name, ok, detail)]
    digest: Callable  # outputs -> plain data, equal iff outputs are bit-identical


# ---------------------------------------------------------------------------
# probe_sweep: the call sequence of `fiokit bench-boundedness`
# ---------------------------------------------------------------------------

PROBE_N = 256
PROBE_BANDS = (3, 4, 5, 6, 7)
PROBE_R, PROBE_DELTA = 2.0, 0.5
PROBE_PS = (("p4_3", 4.0 / 3.0), ("p2", 2.0), ("p4", 4.0))
# the symbol is fixed, so the certificate's power iteration does the same
# work on every seed; the seed draws the test family's random members
PROBE_CHIRP_SEED = 0
SLOPE_LIMIT = 0.2
REF_RTOL = 1e-10


def probe_setup(seed: int, workdir: str):
    spec = fk.GridSpec(N=PROBE_N, L=TWO_PI)
    frame = fk.ParabolicFrame(spec)
    fam = fk.build_lp_family(spec)
    chirp = fk.preset_rough_chirp(spec, PROBE_R, PROBE_DELTA, seed=PROBE_CHIRP_SEED, chi=fam)
    family = fk.build_test_family(spec, frame, PROBE_BANDS, seed=seed, fam=fam)
    return SimpleNamespace(seed=seed, spec=spec, frame=frame, chirp=chirp, family=family)


def probe_run(st):
    reports, stages = {}, {}
    for key, p in PROBE_PS:
        t0 = time.perf_counter()
        bud = fk.budget(PROBE_R, PROBE_DELTA, p, st.spec.n)
        s = bud.admissible_s()
        reports[key] = fk.operator_norm_probe(
            st.chirp, s + bud.tau, s, p, st.frame, st.family, budget=bud)
        stages[f"probe_s.{key}"] = (t0, time.perf_counter())
    # the spectral cross-check lives at s = 0, where the directional norm
    # is L^2-comparable
    t0 = time.perf_counter()
    reports["l2"] = fk.operator_norm_probe(st.chirp, 0.0, 0.0, 2.0, st.frame, st.family)
    stages["probe_s.l2"] = (t0, time.perf_counter())
    return reports, stages


def probe_digest(reports) -> dict:
    return {
        key: {
            "ratios": [row["ratio"] for row in rep.rows],
            "slope": rep.trend_slope(),
            "spectral_bound": rep.spectral_bound,
        }
        for key, rep in reports.items()
    }


def probe_check(st, reports, refs):
    checks = []
    for key, _ in PROBE_PS:
        slope = reports[key].trend_slope()
        checks.append((f"slope.{key}", abs(slope) <= SLOPE_LIMIT, f"slope={slope:+.4f}"))
    l2 = reports["l2"]
    checks.append(("certificate>=sup_ratio", l2.spectral_bound >= l2.sup_ratio,
                   f"bound={l2.spectral_bound:.6f} sup={l2.sup_ratio:.6f}"))
    ref = refs["probe_sweep"].get(str(st.seed))
    if ref is not None:
        got = probe_digest(reports)
        for key, want in ref.items():
            for field in ("ratios", "slope", "spectral_bound"):
                if want[field] is None:
                    ok = got[key][field] is None
                    err = 0.0
                else:
                    err = _rel(got[key][field], want[field])
                    ok = err <= REF_RTOL
                checks.append((f"reference.{key}.{field}", ok, f"rel={err:.1e}"))
    return checks


# ---------------------------------------------------------------------------
# l2_certify: the p = 2 spectral certificate on a fixed set of chirps
# ---------------------------------------------------------------------------

CERT_N = 128
CERT_PERIODS = (("2pi", TWO_PI), ("8pi", 4.0 * TWO_PI))
CERT_SYMBOLS = ((1.5, 0.5), (2.0, 0.5), (1.0, 0.25))
# the chirps are fixed (seed 0) so that sigma_ref can be stored; the run's
# seed drives the power-iteration start vector
CERT_CHIRP_SEED = 0
# rounding slack between the power-iteration estimate and sigma_ref
CERT_RTOL = 1e-10


def cert_case_name(period: str, r: float, delta: float) -> str:
    return f"L{period}.r{r:g}.d{delta:g}"


def cert_setup(seed: int, workdir: str):
    cases = []
    for period, L in CERT_PERIODS:
        spec = fk.GridSpec(N=CERT_N, L=L)
        frame = fk.ParabolicFrame(spec)
        fam = fk.build_lp_family(spec)
        for r, delta in CERT_SYMBOLS:
            chirp = fk.preset_rough_chirp(spec, r, delta, seed=CERT_CHIRP_SEED, chi=fam)
            cases.append((cert_case_name(period, r, delta), chirp, frame))
    return SimpleNamespace(seed=seed, cases=cases)


def cert_run(st):
    bounds, stages = {}, {}
    for name, chirp, frame in st.cases:
        t0 = time.perf_counter()
        bounds[name] = fk.certified_l2_bound(chirp, frame, seed=st.seed)
        stages[f"certify_s.{name}"] = (t0, time.perf_counter())
    return bounds, stages


def cert_digest(bounds) -> dict:
    return dict(bounds)


def cert_check(st, bounds, refs):
    """sigma = bound / sqrt(2) estimates ||Phi T Phi^-1||_2 from below, so
    it must never exceed the stored Lanczos value sigma_ref."""
    checks = []
    for name, bound in bounds.items():
        sigma_ref = refs["l2_certify"][name]
        sigma = bound / np.sqrt(2.0)
        checks.append((f"sigma<=sigma_ref.{name}", sigma <= sigma_ref * (1.0 + CERT_RTOL),
                       f"sigma={sigma:.8f} ref={sigma_ref:.8f}"))
    return checks


def certify_gap(bounds, refs) -> float:
    """Largest (sigma_ref - sigma) / sigma_ref over the certificates."""
    return max((refs["l2_certify"][name] - b / np.sqrt(2.0)) / refs["l2_certify"][name]
               for name, b in bounds.items())


# ---------------------------------------------------------------------------
# spectral_calculus: dyadic and symbol calculus, frame analysis, file paths
# ---------------------------------------------------------------------------

CALC_N = 256
# frame analysis/synthesis runs on its own N = 128 grid: an N = 256 frame
# would add about 7 s to every set-up
CALC_FRAME_N = 128
CALC_SMALL_N, CALC_SMALL_L = 64, 4.0 * TWO_PI
CALC_S, CALC_P, CALC_R = 0.5, 4.0, 1.5
SPLIT_GAMMA = 0.75
SPLIT_ETAS = ((0.5, 0.15), (1.7, 0.4), (3.0, -1.2), (6.0, 2.0), (9.0, -4.0))
CM_BETA_MAX, CM_ORACLE_BAND, CM_ORACLE_MODES = 2, 2, ((0, 0), (1, -1))


def _write_separable(workdir: str, sym) -> str:
    """Symbol descriptor plus one FIOF file per band, as `fiokit apply` reads."""
    entries = []
    for k, a_k in sym.bands.items():
        fname = f"band_{k}.fiof"
        fk.write_fiof(os.path.join(workdir, fname), a_k)
        entries.append({"k": k, "file": fname})
    path = os.path.join(workdir, "symbol.json")
    with open(path, "w") as fh:
        json.dump({"kind": "separable", "r": sym.r, "delta": sym.delta,
                   "eps": sym.chi.eps, "bands": entries}, fh)
    return path


def calc_setup(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    spec = fk.GridSpec(N=CALC_N, L=TWO_PI)
    fam = fk.build_lp_family(spec)
    frame_spec = fk.GridSpec(N=CALC_FRAME_N, L=TWO_PI)
    frame = fk.ParabolicFrame(frame_spec)
    small = fk.GridSpec(N=CALC_SMALL_N, L=CALC_SMALL_L)
    small_fam = fk.build_lp_family(small)
    chirp = fk.preset_rough_chirp(spec, 2.0, 0.5, seed=seed, chi=fam)
    small_chirp = fk.preset_rough_chirp(small, CALC_R, 0.5, seed=seed, chi=small_fam)

    f = _random_field(spec, rng)
    low = fam.values[0] + fam.values[1]
    b = fk.inverse_transform(low * fk.forward_transform(_random_field(spec, rng, real=True)), spec)
    h = fk.inverse_transform(
        (1.0 - fam.values[0]) * fk.forward_transform(_random_field(spec, rng, real=True)), spec)
    high = np.where(fk.lattice(frame_spec).mags >= 0.5, 1.0, 0.0)
    g = fk.inverse_transform(high * fk.forward_transform(_random_field(frame_spec, rng)),
                             frame_spec)
    x = _random_field(spec, rng)
    x_path = os.path.join(workdir, "apply_in.fiof")
    fk.write_fiof(x_path, x)
    return SimpleNamespace(
        seed=seed, spec=spec, fam=fam, frame=frame, f=f, b=b, h=h, g=g,
        chirp=chirp, x_path=x_path, symbol_path=_write_separable(workdir, chirp),
        field_path=os.path.join(workdir, "field.fiof"),
        out_path=os.path.join(workdir, "apply_out.fiof"),
        small_fam=small_fam, small_chirp=small_chirp, small_dense=small_chirp.densify(),
        small_field=_random_field(small, rng),
    )


def calc_run(st):
    out, stages = {}, {}

    def stage(name, fn):
        t0 = time.perf_counter()
        result = fn()
        stages[f"calc_s.{name}"] = (t0, time.perf_counter())
        return result

    out["square_function"] = stage(
        "square_function", lambda: fk.square_function_norm(st.f, CALC_S, CALC_P, st.fam))
    out["zygmund"] = stage("zygmund", lambda: fk.zygmund_norm(st.f, CALC_R, st.fam))
    out["classical"] = stage("classical", lambda: fk.classical_norm(st.f, CALC_S, CALC_P))
    out["paraproducts"] = stage("paraproducts", lambda: [
        fn(st.b, st.h, st.fam).samples
        for fn in (fk.paraproduct_hh, fk.paraproduct_hl, fk.paraproduct_lh)])
    out["frame_recon"] = stage("frame", lambda: fk.frame_synthesize(
        fk.frame_analyze(st.g, st.frame), st.frame).samples)

    def fiof_round_trip():
        fk.write_fiof(st.field_path, st.f)
        return fk.read_fiof(st.field_path).samples

    out["fiof"] = stage("fiof", fiof_round_trip)

    def apply_path():
        field = fk.read_fiof(st.x_path)
        sym = fk.load_symbol(st.symbol_path, spec=field.spec)
        result = fk.apply_symbol(sym, field)
        fk.write_fiof(st.out_path, result)
        return result.samples

    out["apply"] = stage("apply", apply_path)

    def split_evals():
        split = fk.smooth_split(st.small_dense, SPLIT_GAMMA, st.small_fam)
        return [(split.sharp.eval(np.array(eta)), split.flat.eval(np.array(eta)))
                for eta in SPLIT_ETAS]

    out["split"] = stage("smooth_split", split_evals)
    modes = stage("coifman_meyer", lambda: fk.coifman_meyer_decompose(st.small_dense, CM_BETA_MAX))
    out["mode_subgrid"], out["modes"] = modes.subgrid, modes.coeffs
    out["dense"] = stage("apply_dense", lambda: fk.apply_dense(st.small_dense, st.small_field).samples)
    out["separable"] = fk.apply_separable(st.small_chirp, st.small_field).samples
    return out, stages


def calc_digest(out) -> dict:
    def walk(value):
        if isinstance(value, np.ndarray):
            return _digest(value)
        if isinstance(value, dict):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        return value

    return walk(out)


def _mode_oracle(dense, fam, k, modes, P):
    """Direct-sum mode coefficients of the band-k window, sharing no FFT
    indexing with coifman_meyer_decompose."""
    scale = 2.0 ** (k + 1) * np.pi
    zeta = (np.arange(P) - P / 2) / P
    acc = {m: np.zeros(dense.spec.shape, dtype=complex) for m in modes}
    for z1 in zeta:
        for z2 in zeta:
            eta = scale * np.array([z1, z2])
            w = float(fam.band_profile(k, np.hypot(eta[0], eta[1])))
            if w == 0.0:
                continue
            slice_a = w * dense.eval(eta)
            for m in modes:
                acc[m] += slice_a * np.exp(-2j * np.pi * (m[0] * z1 + m[1] * z2))
    return {m: a / P**2 for m, a in acc.items()}


def calc_check(st, out, refs):
    bh = st.b.samples * st.h.samples
    checks = [
        ("paraproduct_completeness", _rel(sum(out["paraproducts"]), bh) <= 1e-12,
         f"rel={_rel(sum(out['paraproducts']), bh):.1e}"),
        ("frame_reconstruction", _rel(out["frame_recon"], st.g.samples) <= 1e-10,
         f"rel={_rel(out['frame_recon'], st.g.samples):.1e}"),
        ("fiof_round_trip_bit_exact", out["fiof"].tobytes() == st.f.samples.tobytes(), ""),
    ]
    expected = fk.apply_separable(st.chirp, fk.read_fiof(st.x_path)).samples
    written = fk.read_fiof(st.out_path).samples
    checks.append(("apply_path_bit_exact", out["apply"].tobytes() == expected.tobytes()
                   and written.tobytes() == expected.tobytes(), ""))
    split_err = max(_rel(sharp + flat, st.small_dense.eval(np.array(eta)))
                    for eta, (sharp, flat) in zip(SPLIT_ETAS, out["split"]))
    checks.append(("smoothing_split_exact", split_err <= 1e-12, f"rel={split_err:.1e}"))
    dense_err = _rel(out["dense"], out["separable"])
    checks.append(("dense_separable_agreement", dense_err <= 1e-10, f"rel={dense_err:.1e}"))
    band = out["modes"][CM_ORACLE_BAND]
    oracle = _mode_oracle(st.small_dense, st.small_fam, CM_ORACLE_BAND, CM_ORACLE_MODES,
                          out["mode_subgrid"])
    scale = max(float(np.abs(a.samples).max()) for a in st.small_chirp.bands.values())
    mode_err = max(float(np.abs(band[m] - oracle[m]).max()) for m in CM_ORACLE_MODES)
    checks.append(("mode_coefficients", mode_err <= 1e-10 * scale, f"abs={mode_err:.1e}"))
    return checks


WORKLOADS = {
    "probe_sweep": Workload(probe_setup, probe_run, probe_check, probe_digest),
    "l2_certify": Workload(cert_setup, cert_run, cert_check, cert_digest),
    "spectral_calculus": Workload(calc_setup, calc_run, calc_check, calc_digest),
}
