"""Command-line harness.

Subcommands: calibrate, verify, norm, apply, smooth, bench-boundedness.
Configuration is a single JSON document; command-line flags override
individual fields.  Exit codes: 0 success, 1 invariant failure,
2 usage/config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .dyadic import LittlewoodPaleyFamily, low_cutoff
from .errors import ParameterError, ToolkitError, _convert, _read, _rng
from .families import _check_band, build_test_family
from .grid import (
    _GRID_SCHEMA,
    GridField,
    GridSpec,
    forward_transform,
    inverse_transform,
    lattice,
    lp_norm,
    read_fiof,
    write_fiof,
)
from .norms import _check_regularity, budget, classical_norm, hpfio_norm, zygmund_norm
from .operators import _check_dense, apply_symbol, operator_norm_probe
from .parabolic import ParabolicFrame, _directions, c_sigma, frame_analyze, frame_synthesize
from .symbols import (
    SeparableSymbol,
    _check_class,
    load_symbol,
    paraproduct_hh,
    paraproduct_hl,
    paraproduct_lh,
    preset_rough_chirp,
    smooth_split,
)

DEFAULT_CONFIG = {
    "grid": {"n": 2, "N": 64, "L": 2.0 * np.pi * 16.0},
    "M_omega": None,
    "eps": 0.125,
    "seed": 0,
    "r": 2.0,
    "delta": 0.5,
    "p_list": [4.0 / 3.0, 2.0, 4.0],
    "s_list": [],
    "bands": [1, 2, 3],
    "eps_slack": 0.01,
    "csv_out": "boundedness.csv",
    "json_out": "boundedness.json",
}

# the rules of a config document; load_config reads a user config through them
_CONFIG = {
    "grid": _GRID_SCHEMA, "M_omega": None, "eps": float, "seed": int,
    "r": float, "delta": float, "p_list": [float], "s_list": [float], "bands": [int],
    "eps_slack": float, "csv_out": str, "json_out": str,
}


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        with open(path) as fh:
            user = _read(json.load(fh), _CONFIG, ParameterError)
        cfg["grid"].update(user.pop("grid", {}))
        cfg.update(user)
    for key, val in overrides.items():
        if val is None:
            continue
        if key in ("N", "L"):
            cfg["grid"][key] = val
        else:
            cfg[key] = val
    if cfg["M_omega"] is not None:
        cfg["M_omega"] = _convert("M_omega", int, cfg["M_omega"])
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _checked(cfg: dict):
    """(spec, fam), the config's grid and LP family.  Building them checks the
    grid and eps; the direction count (M_omega or the default, at most N^n), the
    seed, r (against fam.J_max) and delta are checked here too, so an unusable
    config exits before a command prints."""
    g = cfg["grid"]
    spec = GridSpec(n=g["n"], N=g["N"], L=g["L"])
    fam = LittlewoodPaleyFamily(spec, cfg["eps"])
    _directions(spec, cfg["M_omega"])
    _rng(cfg["seed"])
    _check_regularity(cfg["r"], fam.J_max)
    _check_class(cfg["r"], cfg["delta"])
    return spec, fam


def _rel(got, want) -> float:
    """Relative residual max|got - want| / max|want|."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class CheckSuite:
    def __init__(self):
        self.failures = 0

    def check(self, name: str, residual: float, tol: float):
        ok = residual <= tol
        if not ok:
            self.failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: residual={residual:.3e} tol={tol:.1e}")

    def exit_code(self) -> int:
        return 0 if self.failures == 0 else 1


def _calibration_checks(cfg: dict, spec: GridSpec, fam, suite: CheckSuite):
    rng = _rng(cfg["seed"])

    total = sum(fam.values)
    suite.check("partition-of-unity", float(np.abs(total - 1.0).max()), 1e-12)

    f = GridField(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    back = inverse_transform(forward_transform(f), spec)
    suite.check("transform-round-trip", _rel(back.samples, f.samples), 1e-12)

    for k in (0, 1, min(2, fam.J_max)):
        prod = fam.tilde_multiplier(k).values * fam.values[k]
        suite.check(f"wide-cutoff-band-{k}", float(np.abs(prod - fam.values[k]).max()), 0.0)
    q = low_cutoff(lattice(spec).mags)
    suite.check("low-cutoff-caps-band-0", float(np.abs(q * fam.values[0] - fam.values[0]).max()), 0.0)

    suite.check(
        "c-sigma-closed-form",
        abs(c_sigma(16.0) - (2.0 * np.pi) ** -0.5) / (2.0 * np.pi) ** -0.5,
        1e-8,
    )

    frame = ParabolicFrame(spec, cfg["M_omega"])
    psi = frame.geometry.psi
    worst = 0.0
    for rho in np.geomspace(0.05, spec.xi_max, 20):
        s = np.linspace(np.log(0.5 / rho) - 0.05, np.log(2.0 / rho) + 0.05, 4096)
        worst = max(worst, abs(float(np.trapezoid(psi(np.exp(s) * rho) ** 2, s)) - 1.0))
    suite.check("calderon-normalization", worst, 1e-10)

    pts = lattice(spec).points()
    mags = lattice(spec).mags.ravel()
    support_leak = 0.0
    for l in range(0, frame.n_directions, max(1, frame.n_directions // 8)):
        idx, vals = frame.sparse(l)
        omega = frame.directions.omegas[l]
        unit = pts[idx] / mags[idx][:, None]
        d = np.hypot(unit[:, 0] - omega[0], unit[:, 1] - omega[1])
        bad = (mags[idx] < 0.125) | (d > 2.0 / np.sqrt(mags[idx]))
        if bad.any():
            support_leak = max(support_leak, float(np.abs(vals[bad]).max()))
    suite.check("sector-support", support_leak, 0.0)

    high = np.where(mags >= 0.5, 1.0, 0.0).reshape(spec.shape)
    g = inverse_transform(high * forward_transform(f), spec)
    recon = frame_synthesize(frame_analyze(g, frame), frame)
    suite.check("frame-reconstruction", _rel(recon.samples, g.samples), 1e-10)
    return frame, rng


def cmd_calibrate(cfg: dict, args, spec: GridSpec, fam) -> int:
    suite = CheckSuite()
    print(f"# calibrate  config={config_hash(cfg)}  version={__version__}")
    _calibration_checks(cfg, spec, fam, suite)
    return suite.exit_code()


def cmd_verify(cfg: dict, args, spec: GridSpec, fam) -> int:
    _check_dense(spec)
    suite = CheckSuite()
    print(f"# verify  config={config_hash(cfg)}  version={__version__}")
    frame, rng = _calibration_checks(cfg, spec, fam, suite)

    low = fam.values[0] + fam.values[1]
    b = inverse_transform(low * forward_transform(
        GridField(spec, rng.standard_normal(spec.shape))), spec)
    f = inverse_transform((1.0 - fam.values[0]) * forward_transform(
        GridField(spec, rng.standard_normal(spec.shape))), spec)
    total = (
        paraproduct_hh(b, f, fam).samples
        + paraproduct_hl(b, f, fam).samples
        + paraproduct_lh(b, f, fam).samples
    )
    suite.check("paraproduct-completeness", _rel(total, b.samples * f.samples), 1e-12)

    chirp = preset_rough_chirp(spec, cfg["r"], cfg["delta"], seed=cfg["seed"], chi=fam)
    dense = chirp.densify()
    split = smooth_split(dense, max(0.75, cfg["delta"]), fam)
    eta = np.array([1.7, 0.4])
    got = split.sharp.eval(eta) + split.flat.eval(eta)
    suite.check("smoothing-split-exactness", _rel(got, dense.eval(eta)), 1e-12)

    g = GridField(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
    dense_out = apply_symbol(dense, g)
    sep_out = apply_symbol(chirp, g)
    suite.check("dense-separable-agreement", _rel(dense_out.samples, sep_out.samples), 1e-10)

    bud = budget(2.0, 0.5, 4.0, 2)
    suite.check("budget-tau-supercritical", abs(bud.tau), 0.0)
    suite.check("budget-gamma", abs(bud.gamma - 0.625), 0.0)
    bud2 = budget(0.5, 0.5, 4.0, 2)
    suite.check("budget-rho-subcritical", abs(bud2.rho - 0.125), 0.0)
    return suite.exit_code()


def cmd_norm(cfg: dict, args, spec: GridSpec, fam) -> int:
    field = read_fiof(args.field)
    # the classical norms check p, s and r before the frame is built
    lp = lp_norm(field, args.p)
    sobolev = classical_norm(field, args.s, args.p)
    zygmund = zygmund_norm(field, args.r, LittlewoodPaleyFamily(field.spec, cfg["eps"]))
    frame = ParabolicFrame(field.spec, cfg["M_omega"])
    out = {
        "lp": lp,
        "sobolev": sobolev,
        "zygmund": zygmund,
        "hpfio": hpfio_norm(field, args.s, args.p, frame),
        "p": args.p,
        "s": args.s,
        "r": args.r,
        "config": config_hash(cfg),
        "version": __version__,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_apply(cfg: dict, args, spec: GridSpec, fam) -> int:
    field = read_fiof(args.field)
    sym = load_symbol(args.symbol, spec=field.spec)
    out = apply_symbol(sym, field)
    write_fiof(args.output, out)
    print(f"wrote {args.output}  config={config_hash(cfg)}")
    return 0


def cmd_smooth(cfg: dict, args, spec: GridSpec, fam) -> int:
    sym = load_symbol(args.symbol, spec=spec)
    if isinstance(sym, SeparableSymbol):
        sym = sym.densify()
    split = smooth_split(sym, args.gamma, fam)
    etas = [np.array([rho, 0.3 * rho]) for rho in (0.5, 2.0, min(8.0, sym.spec.xi_max / 2))]
    worst = 0.0
    flat_sup = 0.0
    for eta in etas:
        flat = split.flat.eval(eta)
        worst = max(worst, _rel(split.sharp.eval(eta) + flat, sym.eval(eta)))
        flat_sup = max(flat_sup, float(np.abs(flat).max()))
    out = {
        "gamma": args.gamma,
        "split_residual": worst,
        "flat_sup": flat_sup,
        "flat_declared_order": split.flat.m,
        "config": config_hash(cfg),
        "version": __version__,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if worst <= 1e-12 else 1


def cmd_bench(cfg: dict, args, spec: GridSpec, fam) -> int:
    if len(cfg["s_list"]) > 1:
        raise ParameterError(f"s_list={cfg['s_list']!r}: one s serves every p, give [] or [s]")
    # refuse a bad band, p, p_list, delta, eps_slack or output name before building anything
    if not cfg["bands"]:
        raise ParameterError("bands=[]: empty test family")
    if not cfg["p_list"]:
        raise ParameterError("p_list=[]: no exponent to probe")
    for k in cfg["bands"]:
        _check_band(k, fam.J_max)
    budgets = [(p, budget(cfg["r"], cfg["delta"], p, spec.n, cfg["eps_slack"]))
               for p in cfg["p_list"]]
    for name in (cfg["csv_out"], cfg["json_out"]):
        if not name or os.path.isdir(name) or not os.path.isdir(os.path.dirname(name) or "."):
            raise OSError(f"cannot write {name!r}")
    if os.path.realpath(cfg["csv_out"]) == os.path.realpath(cfg["json_out"]):
        raise ParameterError(f"csv_out={cfg['csv_out']!r} and json_out={cfg['json_out']!r} name one file")
    frame = ParabolicFrame(spec, cfg["M_omega"])
    chirp = preset_rough_chirp(spec, cfg["r"], cfg["delta"], seed=cfg["seed"], chi=fam)
    family = build_test_family(spec, frame, cfg["bands"], seed=cfg["seed"], fam=fam)
    rows = []
    summary = {"config": config_hash(cfg), "version": __version__, "trends": {}}
    for p, bud in budgets:
        s = bud.admissible_s() if not cfg["s_list"] else cfg["s_list"][0]
        rep = operator_norm_probe(chirp, s + bud.tau, s, p, frame, family, budget=bud)
        rows.extend(rep.rows)
        entry = {
            "slope": rep.trend_slope(),
            "sup_ratio": rep.sup_ratio,
            "spectral_bound": rep.spectral_bound,
            "s": s,
            "tau": bud.tau,
        }
        if p == 2.0:
            # spectral cross-check lives at s = 0, where the directional
            # norm is L^2-comparable; tau = 0 at p = 2, so at s = 0 it is rep
            rep0 = rep if s == 0.0 else operator_norm_probe(chirp, 0.0, 0.0, 2.0, frame, family)
            entry["spectral_bound"] = rep0.spectral_bound
            entry["l2_sup_ratio"] = rep0.sup_ratio
        summary["trends"][repr(p)] = entry
    keys = ("p", "s_in", "s_out", "k", "member", "in_norm", "out_norm", "ratio")
    lines = [",".join(keys)] + [",".join(str(row[key]) for key in keys) for row in rows]
    with open(cfg["csv_out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(cfg["json_out"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"wrote {cfg['csv_out']} and {cfg['json_out']}  config={config_hash(cfg)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiokit",
                                     description="dyadic-parabolic analysis toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--N", type=int, help="grid samples per axis")
    parser.add_argument("--L", type=float, help="grid period")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--M-omega", dest="M_omega", type=int)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate").set_defaults(run=cmd_calibrate)
    sub.add_parser("verify").set_defaults(run=cmd_verify)
    p_norm = sub.add_parser("norm")
    p_norm.set_defaults(run=cmd_norm)
    p_norm.add_argument("--field", required=True)
    p_norm.add_argument("--p", type=float, default=2.0)
    p_norm.add_argument("--s", type=float, default=0.0)
    p_norm.add_argument("--r", type=float, default=1.0)
    p_apply = sub.add_parser("apply")
    p_apply.set_defaults(run=cmd_apply)
    p_apply.add_argument("--symbol", required=True)
    p_apply.add_argument("--field", required=True)
    p_apply.add_argument("--output", required=True)
    p_smooth = sub.add_parser("smooth")
    p_smooth.set_defaults(run=cmd_smooth)
    p_smooth.add_argument("--symbol", required=True)
    p_smooth.add_argument("--gamma", type=float, default=0.75)
    sub.add_parser("bench-boundedness").set_defaults(run=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("N", "L", "seed", "M_omega")}
    try:
        cfg = load_config(args.config, overrides)
        spec, fam = _checked(cfg)
        return args.run(cfg, args, spec, fam)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
