import json

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


def test_config_file_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32}, "seed": 7}))
    code, out = run(["--config", str(cfg), "--seed", "9", "calibrate"], capsys)
    assert code == 0


def test_bad_grid_parameter_exits_2(capsys):
    code, _ = run(["--N", "17", "calibrate"], capsys)
    assert code == 2


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
], ids=["identity-r", "separable-eps", "separable-r", "separable-delta", "chirp-r",
        "chirp-seed", "bessel-m", "params-list"])
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


def test_zero_direction_count_exits_2(capsys):
    assert main(["--M-omega", "0", "calibrate"]) == 2
    assert "M=0" in capsys.readouterr().err


@pytest.mark.parametrize("M", [0, 3, -8])
def test_out_of_range_direction_count_exits_2_before_any_output(capsys, M):
    assert main(["--M-omega", str(M), "calibrate"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"M={M}" in out.err


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
