import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fiokit as fk
from conftest import write_fiof_n3
from fiokit.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_calibrate_default_config(capsys):
    code, out = run(["calibrate"], capsys)
    assert code == 0
    assert "partition-of-unity" in out
    assert "FAIL" not in out
    assert "version=" in out


def test_calibrate_insufficient_directions(capsys):
    code, _ = run(["--M-omega", "4", "--N", "64", "--L", str(2 * np.pi), "calibrate"], capsys)
    assert code == 1


def test_verify_default_config(capsys):
    code, out = run(["verify"], capsys)
    assert code == 0
    assert "paraproduct-completeness" in out
    assert "dense-separable-agreement" in out
    assert "FAIL" not in out


def test_verify_splits_at_delta_above_three_quarters(tmp_path, capsys):
    # the class admits delta <= 1 and the split needs gamma in [delta, 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.9}))
    code, out = run(["--config", str(cfg), "verify"], capsys)
    assert code == 0
    assert "smoothing-split-exactness" in out and "budget-rho-subcritical" in out
    assert "FAIL" not in out


def test_verify_refuses_a_grid_above_the_dense_cap_before_any_output(capsys):
    code = main(["--N", "256", "verify"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "dense application restricted to N <= 128" in out.err


def test_config_file_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32}, "seed": 7}))
    code, out = run(["--config", str(cfg), "--seed", "9", "calibrate"], capsys)
    assert code == 0


def test_bad_grid_parameter_exits_2(capsys):
    code, _ = run(["--N", "17", "calibrate"], capsys)
    assert code == 2


@pytest.mark.parametrize("L", [1e-200, 1e200])
def test_a_period_whose_powers_overflow_exits_2_before_any_output(tmp_path, capsys, L):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 16, "L": L}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "calibrate"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"period L={L}" in out.err
    assert "Traceback" not in out.err and "RuntimeWarning" not in out.err


def test_bad_eps_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.3}))
    code, _ = run(["--config", str(cfg), "calibrate"], capsys)
    assert code == 2


def test_missing_config_file_exits_3(capsys):
    code, _ = run(["--config", "/nonexistent/cfg.json", "calibrate"], capsys)
    assert code == 3


def test_norm_command_json(tmp_path, capsys):
    spec = fk.GridSpec(N=64, L=32 * np.pi)
    rng = np.random.default_rng(0)
    f = fk.GridField(spec, rng.standard_normal(spec.shape) + 0j)
    path = tmp_path / "f.fiof"
    fk.write_fiof(path, f)
    code, out = run(
        ["--N", "64", "norm", "--field", str(path), "--p", "2.0", "--s", "0.0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lp"] == pytest.approx(fk.lp_norm(f, 2.0), rel=1e-12)
    assert doc["sobolev"] == pytest.approx(doc["lp"], rel=1e-12)  # s = 0
    assert doc["hpfio"] > 0
    assert "config" in doc and "version" in doc


def test_norm_missing_field_exits_3(capsys):
    code, _ = run(["norm", "--field", "/nonexistent.fiof"], capsys)
    assert code == 3


@pytest.mark.parametrize("cut", [5, -32])
def test_norm_bad_payload_length_exits_1(tmp_path, capsys, cut):
    path = tmp_path / "cut.fiof"
    fk.write_fiof(path, fk.GridField(fk.GridSpec(N=16, L=1.0), np.ones((16, 16))))
    data = path.read_bytes()
    path.write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
    code = main(["norm", "--field", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "invariant failure" in err and "Traceback" not in err


def test_norm_short_header_exits_1(tmp_path, capsys):
    path = tmp_path / "short.fiof"
    path.write_bytes(b"FIOF\x01\x00")
    code = main(["norm", "--field", str(path)])
    assert code == 1
    assert "bad header" in capsys.readouterr().err


def test_calibrate_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr("fiokit.cli.c_sigma", lambda sigma: 0.0)
    code, out = run(["--N", "32", "calibrate"], capsys)
    assert code == 1
    assert "FAIL c-sigma-closed-form" in out
    assert out.count("FAIL") == 1


@pytest.mark.parametrize("command", ["apply", "norm"])
def test_three_dimensional_field_exits_1(tmp_path, capsys, command):
    # fiokit computes in the plane, so an n = 3 file is a bad header
    field = write_fiof_n3(tmp_path / "n3.fiof")
    sym = tmp_path / "ident.json"
    sym.write_text(json.dumps({"kind": "analytic-preset", "preset": "identity"}))
    out = tmp_path / "out.fiof"
    argv = {"apply": ["apply", "--symbol", str(sym), "--output", str(out)], "norm": ["norm"]}
    assert main(argv[command] + ["--field", str(field)]) == 1
    err = capsys.readouterr().err
    assert "bad header: dimension n=3" in err and "Traceback" not in err
    assert not out.exists()


def test_apply_identity_roundtrip(tmp_path, capsys):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    rng = np.random.default_rng(1)
    f = fk.GridField(
        spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    )
    field_path = tmp_path / "f.fiof"
    fk.write_fiof(field_path, f)
    sym_path = tmp_path / "ident.json"
    sym_path.write_text(json.dumps({"kind": "analytic-preset", "preset": "identity"}))
    out_path = tmp_path / "out.fiof"
    code, out = run(
        ["apply", "--symbol", str(sym_path), "--field", str(field_path),
         "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    g = fk.read_fiof(out_path)
    assert np.abs(g.samples - f.samples).max() <= 1e-11 * np.abs(f.samples).max()


def test_smooth_command(tmp_path, capsys):
    sym_path = tmp_path / "chirp.json"
    sym_path.write_text(
        json.dumps(
            {
                "kind": "dense",
                "preset": "rough_chirp",
                "params": {"r": 1.5, "delta": 0.5, "seed": 3},
                "grid": {"N": 64, "L": 8 * np.pi},
            }
        )
    )
    code, out = run(
        ["--N", "64", "--L", str(8 * np.pi), "smooth", "--symbol", str(sym_path),
         "--gamma", "0.75"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["split_residual"] <= 1e-12
    assert doc["gamma"] == 0.75
    assert doc["flat_declared_order"] == pytest.approx(-(0.75 - 0.5) * 1.5)


def test_smooth_densifies_a_separable_symbol(tmp_path, capsys):
    outs = []
    for kind in ("analytic-preset", "dense"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(
            {"kind": kind, "preset": "rough_chirp", "params": {"r": 1.5, "delta": 0.5, "seed": 3}}
        ))
        code, out = run(["--N", "32", "--L", str(8 * np.pi), "smooth", "--symbol", str(path)], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bench_csv_and_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"N": 64, "L": 32 * np.pi},
                "bands": [1, 2],
                "p_list": [2.0, 4.0],
                "csv_out": "run.csv",
                "json_out": "run.json",
            }
        )
    )
    code, _ = run(["--config", str(cfg), "bench-boundedness"], capsys)
    assert code == 0
    csv1 = (tmp_path / "run.csv").read_bytes()
    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "p,s_in,s_out,k,member,in_norm,out_norm,ratio"
    # 2 bands x 4 member kinds x 2 values of p
    assert len(lines) == 1 + 16
    doc = json.loads((tmp_path / "run.json").read_text())
    assert set(doc["trends"]) == {"2.0", "4.0"}
    for trend in doc["trends"].values():
        assert np.isfinite(trend["slope"])
        assert trend["sup_ratio"] > 0
    # p = 2 records the certified spectral cross-check at s = 0
    p2 = doc["trends"]["2.0"]
    assert p2["spectral_bound"] is not None
    assert p2["l2_sup_ratio"] <= p2["spectral_bound"] * (1 + 1e-6)

    code, _ = run(["--config", str(cfg), "bench-boundedness"], capsys)
    assert code == 0
    assert (tmp_path / "run.csv").read_bytes() == csv1


@pytest.mark.parametrize("s_list, p2_probes", [([], 2), ([0.0], 1)], ids=["default", "s0"])
def test_bench_probes_p2_once_when_s_is_zero(tmp_path, capsys, monkeypatch, s_list, p2_probes):
    # tau = 0 at p = 2, so at s = 0 the s = 0 cross-check is the row's own probe
    monkeypatch.chdir(tmp_path)
    calls = []
    original = fk.cli.operator_norm_probe

    def counted(a, s_in, s_out, p, *args, **kwargs):
        calls.append(p)
        return original(a, s_in, s_out, p, *args, **kwargs)

    monkeypatch.setattr(fk.cli, "operator_norm_probe", counted)
    (tmp_path / "cfg.json").write_text(json.dumps({"s_list": s_list}))
    code, _ = run(["--config", "cfg.json", "bench-boundedness"], capsys)
    assert code == 0
    assert calls.count(2.0) == p2_probes and len(calls) == 2 + p2_probes
    p2 = json.loads((tmp_path / "boundedness.json").read_text())["trends"]["2.0"]
    assert np.isfinite(p2["spectral_bound"])
    if s_list == [0.0]:
        assert p2["l2_sup_ratio"] == p2["sup_ratio"]


@pytest.mark.parametrize("s_list", [[0.1, 0.2], 0.2])
def test_bench_rejects_bad_s_list(tmp_path, capsys, monkeypatch, s_list):
    # one s serves every p: a longer list or a bare number is a config error
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_list": s_list}))
    code = main(["--config", str(cfg), "bench-boundedness"])
    assert code == 2
    assert "s_list" in capsys.readouterr().err
    assert not (tmp_path / "boundedness.csv").exists()


@pytest.mark.parametrize("doc, code, text", [
    ({"delta": 0.75}, 2, "config error"),
    ({"p_list": [1.0]}, 2, "config error"),
    ({"eps_slack": 0}, 2, "config error"),
    ({"csv_out": ""}, 3, "i/o error"),
    ({"csv_out": "missing/run.csv"}, 3, "i/o error"),
    ({"json_out": "."}, 3, "i/o error"),
    ({"bands": [1, 99]}, 2, "band 99 outside the grid's dyadic range"),
    ({"bands": []}, 2, "empty test family"),
    ({"p_list": []}, 2, "p_list=[]"),
    ({"csv_out": "out.txt", "json_out": "./out.txt"}, 2,
     "csv_out='out.txt' and json_out='./out.txt' name one file"),
], ids=["delta", "p", "eps-slack", "csv-empty", "csv-missing-dir", "json-directory",
        "band-out-of-range", "bands-empty", "p-list-empty", "csv-json-one-file"])
def test_bench_refuses_before_building_the_frame(tmp_path, capsys, monkeypatch, doc, code, text):
    def no_frame(*args, **kwargs):
        raise AssertionError("the frame was built")
    monkeypatch.setattr("fiokit.cli.ParabolicFrame", no_frame)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["--config", str(cfg), "bench-boundedness"]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert text in out.err and "Traceback" not in out.err
    assert not list(work.iterdir())


def test_version_flag_matches_package():
    from fiokit.cli import DEFAULT_CONFIG, config_hash

    h1 = config_hash(DEFAULT_CONFIG)
    h2 = config_hash(json.loads(json.dumps(DEFAULT_CONFIG)))
    assert h1 == h2 and len(h1) == 16


@pytest.mark.parametrize("doc", [
    {"grid": {"N": "x"}},
    {"seed": "a"},
    {"M_omega": "z"},
    {"grid": 64},
    {"p_list": 4.0},
    [1, 2],
])
def test_malformed_config_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["--config", str(cfg), "calibrate"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_config_fields_are_converted_once(tmp_path):
    from fiokit.cli import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"N": "32"}, "r": 2, "seed": "7", "bands": ["1", 2]}))
    cfg = load_config(str(path), {"seed": None})
    assert cfg["grid"] == {"n": 2, "N": 32, "L": 2.0 * np.pi * 16.0}
    assert type(cfg["r"]) is float and cfg["r"] == 2.0
    assert cfg["seed"] == 7 and cfg["bands"] == [1, 2] and cfg["M_omega"] is None


@pytest.mark.parametrize("doc", [{"seed": 1.5}, {"grid": {"N": 64.9}}, {"bands": [1, 2.5]}])
def test_config_rejects_fractional_integers(tmp_path, doc):
    from fiokit.cli import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fk.ParameterError, match="not an integer"):
        load_config(str(path), {})


def test_config_accepts_integral_floats(tmp_path, capsys):
    from fiokit.cli import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3.0, "grid": {"N": 64.0}}))
    cfg = load_config(str(path), {})
    assert cfg["seed"] == 3 and cfg["grid"]["N"] == 64
    # a truncated value would have loaded; the fractional one exits 2
    path.write_text(json.dumps({"grid": {"N": 64.9}}))
    assert main(["--config", str(path), "calibrate"]) == 2
    assert "config error" in capsys.readouterr().err


def _apply_with_symbol(tmp_path, symbol_doc, f):
    field_path = tmp_path / "f.fiof"
    fk.write_fiof(field_path, f)
    sym_path = tmp_path / "sym.json"
    sym_path.write_text(json.dumps(symbol_doc))
    return main(["apply", "--symbol", str(sym_path), "--field", str(field_path),
                 "--output", str(tmp_path / "out.fiof")])


@pytest.mark.parametrize("symbol_doc", [
    ["identity"],
    {"kind": "analytic-preset"},
    {"kind": "separable"},
    {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {}},
    {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": 1.0, "n": 2.0}},
])
def test_apply_malformed_symbol_exits_1(tmp_path, capsys, symbol_doc):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    assert _apply_with_symbol(tmp_path, symbol_doc, fk.GridField(spec, np.ones(spec.shape))) == 1
    err = capsys.readouterr().err
    assert "invariant failure" in err and "symbol descriptor" in err
    assert not (tmp_path / "out.fiof").exists()


@pytest.mark.parametrize("bands", [
    [{"k": "x", "file": "b.fiof"}],
    [{"k": 2.7, "file": "b.fiof"}],
    ["b.fiof"],
    5,
    [{"k": 1, "file": 5}],
    [{"k": 1, "file": None}],
])
def test_apply_malformed_band_entry_exits_1(tmp_path, capsys, bands):
    # the band index follows the config's integer rule: no truncation
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fk.write_fiof(tmp_path / "b.fiof", fk.GridField(spec, np.ones(spec.shape)))
    doc = {"kind": "separable", "bands": bands}
    assert _apply_with_symbol(tmp_path, doc, fk.GridField(spec, np.ones(spec.shape))) == 1
    err = capsys.readouterr().err
    assert "invariant failure" in err and "symbol descriptor band" in err
    assert not (tmp_path / "out.fiof").exists()


_SEPARABLE = {"kind": "separable", "bands": [{"k": 1, "file": "b.fiof"}]}
_CHIRP = {"kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 2.0, "delta": 0.5}}
_BESSEL = {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": 1.0}}


@pytest.mark.parametrize("symbol_doc, field", [
    ({"kind": "analytic-preset", "preset": "identity", "r": "x"}, "r="),
    ({**_SEPARABLE, "eps": "x"}, "eps="),
    ({**_SEPARABLE, "r": "x"}, "r="),
    ({**_SEPARABLE, "delta": "x"}, "delta="),
    ({**_CHIRP, "params": {"r": "x", "delta": 0.5}}, "params.r="),
    ({**_CHIRP, "params": {"r": 2.0, "delta": 0.5, "seed": 1.7}}, "params.seed="),
    ({**_BESSEL, "params": {"m": "x"}}, "params.m="),
    ({**_BESSEL, "params": [1]}, "params [1]"),
    ({"kind": "analytic-preset", "preset": "multiplication", "params": {"b_file": 5}},
     "params.b_file=5"),
    # a rough chirp reads r from its params only
    ({**_CHIRP, "r": 5}, "has unknown keys ['r']"),
], ids=["identity-r", "separable-eps", "separable-r", "separable-delta", "chirp-r",
        "chirp-seed", "bessel-m", "params-list", "b-file", "chirp-top-level-r"])
def test_apply_malformed_descriptor_field_exits_1(tmp_path, capsys, symbol_doc, field):
    # every scalar of a descriptor follows the config's conversion rule
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fk.write_fiof(tmp_path / "b.fiof", fk.GridField(spec, np.ones(spec.shape)))
    assert _apply_with_symbol(tmp_path, symbol_doc, fk.GridField(spec, np.ones(spec.shape))) == 1
    err = capsys.readouterr().err
    assert "invariant failure" in err and f"symbol descriptor {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.fiof").exists()


@pytest.mark.parametrize("params, text", [
    ({"r": 2.0, "delta": 0.5, "seed": -1}, "seed=-1"),
    ({"r": 5000, "delta": 0.5}, "r=5000"),
    ({"r": 2.0, "delta": 2.0}, "delta=2.0"),
], ids=["negative-seed", "overflowing-r", "delta-out-of-range"])
def test_apply_out_of_range_chirp_param_exits_2(tmp_path, capsys, params, text):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    doc = {**_CHIRP, "params": params}
    assert _apply_with_symbol(tmp_path, doc, fk.GridField(spec, np.ones(spec.shape))) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and text in out.err
    assert "Traceback" not in out.err
    assert not (tmp_path / "out.fiof").exists()


def test_apply_multiplication_preset(tmp_path, capsys):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    rng = np.random.default_rng(5)
    b, f = (fk.GridField(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape))
            for _ in range(2))
    fk.write_fiof(tmp_path / "b.fiof", b)
    doc = {"kind": "analytic-preset", "preset": "multiplication", "params": {"b_file": "b.fiof"}}
    assert _apply_with_symbol(tmp_path, doc, f) == 0
    capsys.readouterr()
    # a(x, eta) = b(x) is the operator f -> b f
    want = b.samples * f.samples
    out = fk.read_fiof(tmp_path / "out.fiof")
    assert np.abs(out.samples - want).max() <= 1e-11 * np.abs(want).max()


def test_bench_csv_fields_are_plain_numbers(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 64, "L": 32 * np.pi}, "bands": [1, 2],
                               "p_list": [2.0, 4.0], "csv_out": "run.csv"}))
    code, _ = run(["--config", str(cfg), "bench-boundedness"], capsys)
    assert code == 0
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, value in zip(header, line.split(","), strict=True):
            if name != "member":
                float(value)


def test_norm_uses_configured_eps(tmp_path, capsys):
    spec = fk.GridSpec(N=64, L=32 * np.pi)
    rng = np.random.default_rng(0)
    f = fk.GridField(spec, rng.standard_normal(spec.shape) + 0j)
    path = tmp_path / "f.fiof"
    fk.write_fiof(path, f)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.2}))
    code, out = run(["--config", str(cfg), "--N", "64", "norm", "--field", str(path),
                     "--r", "1.5"], capsys)
    assert code == 0
    zygmund = json.loads(out)["zygmund"]
    assert zygmund == fk.zygmund_norm(f, 1.5, fk.build_lp_family(spec, 0.2))
    assert zygmund != fk.zygmund_norm(f, 1.5)


@pytest.mark.parametrize("doc", [{"p_lsit": [4.0]}, {"grid": {"N": 32, "n2": 5}}],
                         ids=["top-level", "grid"])
def test_unknown_config_key_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "calibrate"]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_config_names_unknown_keys_on_every_level_at_once(tmp_path):
    from fiokit.cli import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_lsit": [4.0], "grid": {"N": 32, "n2": 5}, "sede": 1}))
    with pytest.raises(fk.ParameterError, match=r"unknown keys \['p_lsit', 'sede', 'grid.n2'\]"):
        load_config(str(path), {})


@pytest.mark.parametrize("flags, text", [(["--s", "400"], "s=400"), (["--r", "1000"], "r=1000"),
                                         (["--p", "1"], "p=1")],
                         ids=["s-overflows", "r-overflows", "p-one"])
def test_norm_refuses_s_r_and_p_before_building_the_frame(tmp_path, capsys, monkeypatch, flags,
                                                          text):
    def no_frame(*args, **kwargs):
        raise AssertionError("the frame was built")

    monkeypatch.setattr("fiokit.cli.ParabolicFrame", no_frame)
    spec = fk.GridSpec(N=64, L=2 * np.pi)
    path = tmp_path / "f.fiof"
    fk.write_fiof(path, fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape)))
    assert main(["norm", "--field", str(path), *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and text in out.err


def test_zero_direction_count_exits_2(capsys):
    assert main(["--M-omega", "0", "calibrate"]) == 2
    assert "M=0" in capsys.readouterr().err


@pytest.mark.parametrize("M", [0, 3, -8])
def test_out_of_range_direction_count_exits_2_before_any_output(capsys, M):
    assert main(["--M-omega", str(M), "calibrate"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"M={M}" in out.err


@pytest.mark.parametrize("grid, flags, M", [
    # the default count: 52 digits at L = 1e-100, 2 136 at L = 1e-3, and N^n = 256
    ({"N": 16, "L": 1e-100}, [], 6745007137634597267152416579622654562780660084244480),
    ({"N": 16, "L": 1e-3}, [], 2136),
    ({"N": 16, "L": 2 * np.pi}, ["--M-omega", "257"], 257),
])
@pytest.mark.parametrize("command", ["calibrate", "bench-boundedness"])
def test_a_direction_count_above_the_lattice_exits_2_before_any_output(
        tmp_path, capsys, monkeypatch, grid, flags, M, command):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), *flags, command]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"M={M} exceeds" in out.err and "256 lattice points" in out.err
    assert not (tmp_path / "boundedness.csv").exists()


def test_the_direction_cap_leaves_the_default_grids_alone(capsys):
    # 32 of 256 directions at N = 16, L = 2 pi; N^n itself is allowed
    code, _ = run(["--N", "16", "--L", str(2 * np.pi), "calibrate"], capsys)
    assert code == 0
    assert fk.ParabolicFrame(fk.GridSpec(N=16, L=2 * np.pi)).n_directions == 32
    assert fk.ParabolicFrame(fk.GridSpec(N=16, L=2 * np.pi), M_omega=256).n_directions == 256


def test_separable_descriptor_with_a_repeated_band_exits_1(tmp_path, capsys):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    fk.write_fiof(tmp_path / "band.fiof", fk.GridField(spec, np.ones(spec.shape)))
    band = {"k": 1, "file": "band.fiof"}
    code = _apply_with_symbol(tmp_path, {"kind": "separable", "bands": [band, band]},
                              fk.GridField(spec, np.ones(spec.shape)))
    assert code == 1
    assert "band 1 twice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "verify", "bench-boundedness"])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main(["--seed", "-1", command]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "seed=-1" in out.err and "Traceback" not in out.err
    assert not list(tmp_path.iterdir())


def test_negative_config_seed_exits_2_before_any_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3}))
    assert main(["--config", str(cfg), "bench-boundedness"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "seed=-3" in out.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("r, text", [("inf", "finite"), ("nan", "finite"), ("1000", "below")])
def test_norm_extreme_regularity_exits_2(tmp_path, capsys, r, text):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    path = tmp_path / "f.fiof"
    fk.write_fiof(path, fk.GridField(spec, np.ones(spec.shape)))
    assert main(["norm", "--field", str(path), "--r", r]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and text in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("args, text", [
    (["--s", "400"], "s=400.0"),
    (["--s", "180", "--p", "4"], "s=180.0, p=4.0"),
    (["--s", "200", "--p", "4"], "s=200.0"),
], ids=["s400", "s180-p4", "s200-p4"])
def test_norm_overflowing_smoothness_exits_2(tmp_path, capsys, args, text):
    # xi_max = 45.3 at N=64, L=2 pi: <D>^s f or its p-th power overflows
    spec = fk.GridSpec(N=64, L=2 * np.pi)
    path = tmp_path / "f.fiof"
    fk.write_fiof(path, fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape)))
    assert main(["norm", "--field", str(path), *args]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and text in out.err and "overflows" in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("s", [180.0, 200.0])
def test_bench_refuses_an_overflowing_s(tmp_path, capsys, monkeypatch, p, s):
    # the probe's first norm overflows, so bench exits 2 with nothing written
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 64, "L": 2 * np.pi}, "bands": [1, 2],
                               "p_list": [p], "s_list": [s]}))
    assert main(["--config", str(cfg), "bench-boundedness"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and f"p={p} overflows" in out.err
    assert "Traceback" not in out.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("case", ["norm-s400", "norm-s180-p4", "bench-s200", "norm-1e100-p4"])
def test_an_overflowing_s_is_refused_with_no_runtime_warning(tmp_path, capsys, monkeypatch,
                                                             case, action):
    # as under python -W error::RuntimeWarning ("error") and without it ("always"):
    # exit 2, nothing written, and no warning first, from this thread or a direction worker
    monkeypatch.chdir(tmp_path)
    if case == "norm-1e100-p4":
        # at s = 0 no weight overflows, but |f|^4 does, in lp_norm first
        spec = fk.GridSpec(N=32, L=8 * np.pi)
        fk.write_fiof("f.fiof", fk.GridField(spec, np.full(spec.shape, 1e100)))
    else:
        spec = fk.GridSpec(N=64, L=2 * np.pi)
        fk.write_fiof("f.fiof", fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape)))
    grid = ["--N", "64", "--L", repr(2 * np.pi)]
    argv = {
        "norm-s400": grid + ["norm", "--field", "f.fiof", "--s", "400"],
        "norm-s180-p4": grid + ["norm", "--field", "f.fiof", "--s", "180", "--p", "4"],
        "norm-1e100-p4": ["norm", "--field", "f.fiof", "--p", "4"],
        "bench-s200": ["--config", "cfg.json", "bench-boundedness"],
    }[case]
    (tmp_path / "cfg.json").write_text(json.dumps({"grid": {"N": 64, "L": 2 * np.pi}, "bands": [1, 2],
                                                   "p_list": [4.0], "s_list": [200.0]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        assert main(argv) == 2
    assert [str(w.message) for w in caught] == []
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and "overflows" in out.err and "Traceback" not in out.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "f.fiof"]


@pytest.mark.parametrize("command", ["calibrate", "verify"])
@pytest.mark.parametrize("doc", [{"r": -1}, {"r": 1000}, {"delta": 3}, {"eps": 5}, {"eps": 0}],
                         ids=["r-negative", "r-overflows", "delta", "eps-large", "eps-zero"])
def test_unusable_config_exits_2_before_any_output(tmp_path, capsys, doc, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32, "L": 8 * np.pi}, **doc}))
    assert main(["--config", str(cfg), command]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("doc", [{"csv_out": None}, {"json_out": ["a"]}, {"csv_out": 1}],
                         ids=["csv-null", "json-list", "csv-int"])
def test_output_names_must_be_strings(tmp_path, capfd, monkeypatch, doc):
    # capfd, not capsys: an integer name would be opened as that file descriptor
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32, "L": 8 * np.pi}, "bands": [1],
                               "p_list": [2.0], **doc}))
    assert main(["--config", str(cfg), "bench-boundedness"]) == 2
    out = capfd.readouterr()
    assert out.out == ""
    assert "must be a file name" in out.err and "Traceback" not in out.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["calibrate", "verify"])
@pytest.mark.parametrize("doc", [{"seed": True}, {"seed": False}, {"r": True}, {"bands": [True]},
                                 {"seed": True, "bands": [True]}, {"grid": {"N": 32, "L": True}}],
                         ids=["seed", "seed-false", "r", "bands", "seed-and-bands", "grid-L"])
def test_config_refuses_booleans_before_any_output(tmp_path, capsys, doc, command):
    # int(True) is 1 and float(True) 1.0, so a bool would otherwise be read as a number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32, "L": 8 * np.pi}, **doc}))
    assert main(["--config", str(cfg), command]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and ("True" in out.err or "False" in out.err)
    assert "Traceback" not in out.err


@pytest.mark.parametrize("symbol_doc", [
    {"kind": "analytic-preset", "preset": "identity", "r": True},
    {"kind": "dense", "preset": "rough_chirp", "params": {"r": True, "delta": 0.5}},
    {"kind": "dense", "preset": "rough_chirp", "params": {"r": 1.5, "delta": 0.5, "seed": True}},
], ids=["r", "params-r", "params-seed"])
def test_apply_refuses_a_boolean_in_a_descriptor(tmp_path, capsys, symbol_doc):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    assert _apply_with_symbol(tmp_path, symbol_doc, fk.GridField(spec, np.ones(spec.shape))) == 1
    err = capsys.readouterr().err
    assert "symbol descriptor" in err and "True" in err and "Traceback" not in err
    assert not (tmp_path / "out.fiof").exists()


@pytest.mark.parametrize("grid, code, text", [
    ({"N": 64, "L": 8 * np.pi}, 1, "differs from the given grid"),
    ({"N": 30, "L": 1.0}, 2, "N=30"),
], ids=["other-grid", "invalid-grid"])
def test_apply_checks_a_descriptor_grid(tmp_path, capsys, grid, code, text):
    # the field's grid is N = 32, L = 8 pi
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    doc = {"kind": "analytic-preset", "preset": "identity", "grid": grid}
    assert _apply_with_symbol(tmp_path, doc, fk.GridField(spec, np.ones(spec.shape))) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert text in out.err and "Traceback" not in out.err
    assert not (tmp_path / "out.fiof").exists()


def test_smooth_refuses_a_descriptor_grid_other_than_the_config_grid(tmp_path, capsys):
    path = tmp_path / "chirp.json"
    path.write_text(json.dumps({"kind": "analytic-preset", "preset": "rough_chirp",
                                "params": {"r": 1.5, "delta": 0.5},
                                "grid": {"N": 32, "L": 8 * np.pi}}))
    # the default config grid is N = 64, L = 32 pi
    assert main(["smooth", "--symbol", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "N=32" in out.err and "N=64" in out.err and "Traceback" not in out.err


def test_smooth_refuses_band_files_on_a_grid_other_than_the_config_grid(tmp_path, capsys):
    # the descriptor declares no grid; its band files lie on N = 32, L = 8 pi
    sym = fk.preset_rough_chirp(fk.GridSpec(N=32, L=8 * np.pi), 1.5, 0.5, seed=3)
    for k, a_k in sym.bands.items():
        fk.write_fiof(tmp_path / f"band_{k}.fiof", a_k)
    path = tmp_path / "separable.json"
    path.write_text(json.dumps({"kind": "separable", "r": 1.5, "delta": 0.5, "bands": [
        {"k": k, "file": f"band_{k}.fiof"} for k in sym.bands]}))
    assert main(["--N", "64", "smooth", "--symbol", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "the given grid" in out.err and "N=32" in out.err and "Traceback" not in out.err


def test_apply_refuses_a_non_finite_order(tmp_path, capsys):
    spec = fk.GridSpec(N=32, L=8 * np.pi)
    doc = {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": float("nan")}}
    assert _apply_with_symbol(tmp_path, doc, fk.GridField(spec, np.ones(spec.shape))) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and "m=nan" in out.err and "Traceback" not in out.err
    assert not (tmp_path / "out.fiof").exists()


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not on PATH")
def test_installed_cli_script_parses():
    # CI runs the script against the installed command; a syntax error fails here first
    script = Path(__file__).with_name("installed_cli.sh")
    done = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_python_m_fiokit_runs_the_cli():
    # __main__.py is the one module that no in-process test runs
    path = [str(Path(fk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "fiokit", "--help"], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fiokit") and "bench-boundedness" in done.stdout
    assert done.stderr == ""
