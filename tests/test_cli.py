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


def test_config_file_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 32}, "seed": 7}))
    code, out = run(["--config", str(cfg), "--seed", "9", "calibrate"], capsys)
    assert code == 0


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


def test_calibrate_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr("fiokit.cli.c_sigma", lambda sigma: 0.0)
    code, out = run(["--N", "32", "calibrate"], capsys)
    assert code == 1
    assert "FAIL c-sigma-closed-form" in out
    assert out.count("FAIL") == 1


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


def test_version_flag_matches_package():
    from fiokit.cli import DEFAULT_CONFIG, config_hash

    h1 = config_hash(DEFAULT_CONFIG)
    h2 = config_hash(json.loads(json.dumps(DEFAULT_CONFIG)))
    assert h1 == h2 and len(h1) == 16


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


def test_config_names_unknown_keys_on_every_level_at_once(tmp_path):
    from fiokit.cli import load_config

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_lsit": [4.0], "grid": {"N": 32, "n2": 5}, "sede": 1}))
    with pytest.raises(fk.ParameterError, match=r"unknown keys \['p_lsit', 'sede', 'grid.n2'\]"):
        load_config(str(path), {})


def test_the_direction_cap_leaves_the_default_grids_alone(capsys):
    # 32 of 256 directions at N = 16, L = 2 pi; N^n itself is allowed
    code, _ = run(["--N", "16", "--L", str(2 * np.pi), "calibrate"], capsys)
    assert code == 0
    assert fk.ParabolicFrame(fk.GridSpec(N=16, L=2 * np.pi)).n_directions == 32
    assert fk.ParabolicFrame(fk.GridSpec(N=16, L=2 * np.pi), M_omega=256).n_directions == 256


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


# Every refusal of the CLI keeps one contract: main exits with the row's code, prints
# nothing to stdout and the row's texts but no traceback to stderr, issues no warning of
# any category, and leaves its working directory, which holds only the row's inputs, as
# it was.  A row may also hold that the frame is never built.  The table is keyed by the
# name of each item, name[id] for a row among several of one name.

_ONES = fk.GridField(fk.GridSpec(N=32, L=8 * np.pi), np.ones((32, 32)))
# xi_max = 45.3 at N = 64, L = 2 pi: <D>^s f or its p-th power overflows at s = 180
_NOISE = fk.GridField(fk.GridSpec(N=64, L=2 * np.pi), np.random.default_rng(0).standard_normal((64, 64)))


def _write(path, content):
    # content is a callable that writes path, a field or a JSON document
    if callable(content):
        content(path)
    elif isinstance(content, fk.GridField):
        fk.write_fiof(path, content)
    else:
        path.write_text(json.dumps(content))


def _refuses(row, tmp_path, monkeypatch, capfd):
    # capfd, not capsys: an integer output name would be opened as that file descriptor
    inputs, argv, code, err, frame = row
    monkeypatch.chdir(tmp_path)
    for name, content in inputs.items():
        _write(tmp_path / name, content)
    files = sorted(os.listdir())
    if not frame:
        def no_frame(*args, **kwargs):
            raise AssertionError("the frame was built")
        monkeypatch.setattr("fiokit.cli.ParabolicFrame", no_frame)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    out = capfd.readouterr()
    assert out.out == ""
    assert all(text in out.err for text in err) and "Traceback" not in out.err, out.err
    assert [str(w.message) for w in caught] == []
    assert sorted(os.listdir()) == files


def _row(inputs, argv, code, *err, frame=True):
    return inputs, argv, code, err, frame


def _cfg(doc, *argv):
    return {"cfg.json": doc}, ["--config", "cfg.json", *argv]


def _norm(field, *flags):
    return {"f.fiof": field}, ["norm", "--field", "f.fiof", *flags]


def _apply(symbol_doc, *band_files, field=_ONES):
    # each band file, and the field unless given, is 32 x 32 ones at L = 8 pi
    inputs = {"f.fiof": field, "sym.json": symbol_doc, **dict.fromkeys(band_files, _ONES)}
    return inputs, ["apply", "--symbol", "sym.json", "--field", "f.fiof", "--output", "out.fiof"]


def _cut(n):
    # a FIOF file of 16 x 16 ones with n bytes cut from its end, or -n bytes added
    def write(path):
        fk.write_fiof(path, fk.GridField(fk.GridSpec(N=16, L=1.0), np.ones((16, 16))))
        data = path.read_bytes()
        path.write_bytes(data[:-n] if n > 0 else data + bytes(-n))
    return write


_GRID64 = ["--N", "64", "--L", repr(2 * np.pi)]
_BENCH64 = {"grid": {"N": 64, "L": 2 * np.pi}, "bands": [1, 2]}
_GRID32 = {"N": 32, "L": 8 * np.pi}
_IDENTITY = {"kind": "analytic-preset", "preset": "identity"}
_SEPARABLE = {"kind": "separable", "bands": [{"k": 1, "file": "b.fiof"}]}
_CHIRP = {"kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 2.0, "delta": 0.5}}
_BESSEL = {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": 1.0}}
_CHIRP32 = fk.preset_rough_chirp(fk.GridSpec(N=32, L=8 * np.pi), 1.5, 0.5, seed=3)
# the default count: 52 digits at L = 1e-100, 2 136 at L = 1e-3, and N^n = 256
_ABOVE_LATTICE = [({"N": 16, "L": 1e-100}, [], 6745007137634597267152416579622654562780660084244480),
                  ({"N": 16, "L": 1e-3}, [], 2136),
                  ({"N": 16, "L": 2 * np.pi}, ["--M-omega", "257"], 257)]

_REFUSALS = {
    "test_verify_refuses_a_grid_above_the_dense_cap_before_any_output": _row(
        {}, ["--N", "256", "verify"], 1, "dense application restricted to N <= 128"),
    "test_bad_grid_parameter_exits_2": _row({}, ["--N", "17", "calibrate"], 2, "N=17"),
    **{f"test_a_period_whose_powers_overflow_exits_2_before_any_output[{L}]": _row(
        *_cfg({"grid": {"N": 16, "L": L}}, "calibrate"), 2, f"period L={L}") for L in (1e-200, 1e200)},
    "test_bad_eps_exits_2": _row(*_cfg({"eps": 0.3}, "calibrate"), 2, "eps=0.3"),
    "test_missing_config_file_exits_3": _row(
        {}, ["--config", "/nonexistent/cfg.json", "calibrate"], 3, "i/o error"),
    "test_norm_missing_field_exits_3": _row({}, ["norm", "--field", "/nonexistent.fiof"], 3, "i/o error"),
    **{f"test_norm_bad_payload_length_exits_1[{n}]": _row(*_norm(_cut(n)), 1, "invariant failure")
       for n in (5, -32)},
    "test_norm_short_header_exits_1": _row(
        *_norm(lambda path: path.write_bytes(b"FIOF\x01\x00")), 1, "bad header"),
    # fiokit computes in the plane, so an n = 3 file is a bad header
    "test_three_dimensional_field_exits_1[apply]": _row(
        *_apply(_IDENTITY, field=write_fiof_n3), 1, "bad header: dimension n=3"),
    "test_three_dimensional_field_exits_1[norm]": _row(
        *_norm(write_fiof_n3), 1, "bad header: dimension n=3"),
    # one s serves every p: a longer list or a bare number is a config error
    **{f"test_bench_rejects_bad_s_list[{key}]": _row(
        *_cfg({"s_list": s_list}, "bench-boundedness"), 2, "s_list")
       for key, s_list in (("s_list0", [0.1, 0.2]), ("0.2", 0.2))},
    **{f"test_bench_refuses_before_building_the_frame[{key}]": _row(
        *_cfg(doc, "bench-boundedness"), code, text, frame=False) for key, doc, code, text in [
        ("delta", {"delta": 0.75}, 2, "config error"),
        ("p", {"p_list": [1.0]}, 2, "config error"),
        ("eps-slack", {"eps_slack": 0}, 2, "config error"),
        ("csv-empty", {"csv_out": ""}, 3, "i/o error"),
        ("csv-missing-dir", {"csv_out": "missing/run.csv"}, 3, "i/o error"),
        ("json-directory", {"json_out": "."}, 3, "i/o error"),
        ("band-out-of-range", {"bands": [1, 99]}, 2, "band 99 outside the grid's dyadic range"),
        ("bands-empty", {"bands": []}, 2, "empty test family"),
        ("p-list-empty", {"p_list": []}, 2, "p_list=[]"),
        ("csv-json-one-file", {"csv_out": "out.txt", "json_out": "./out.txt"}, 2,
         "csv_out='out.txt' and json_out='./out.txt' name one file")]},
    **{f"test_malformed_config_exits_2[doc{i}]": _row(*_cfg(doc, "calibrate"), 2, "config error")
       for i, doc in enumerate([{"grid": {"N": "x"}}, {"seed": "a"}, {"M_omega": "z"}, {"grid": 64},
                                {"p_list": 4.0}, [1, 2]])},
    **{f"test_apply_malformed_symbol_exits_1[symbol_doc{i}]": _row(
        *_apply(doc), 1, "invariant failure", "symbol descriptor") for i, doc in enumerate([
        ["identity"],
        {"kind": "analytic-preset"},
        {"kind": "separable"},
        {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {}},
        {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": 1.0, "n": 2.0}}])},
    # the band index follows the config's integer rule: no truncation
    **{f"test_apply_malformed_band_entry_exits_1[{key}]": _row(
        *_apply({"kind": "separable", "bands": bands}, "b.fiof"), 1,
        "invariant failure", "symbol descriptor band") for key, bands in [
        ("bands0", [{"k": "x", "file": "b.fiof"}]),
        ("bands1", [{"k": 2.7, "file": "b.fiof"}]),
        ("bands2", ["b.fiof"]),
        ("5", 5),
        ("bands4", [{"k": 1, "file": 5}]),
        ("bands5", [{"k": 1, "file": None}])]},
    # every scalar of a descriptor follows the config's conversion rule
    **{f"test_apply_malformed_descriptor_field_exits_1[{key}]": _row(
        *_apply(doc, "b.fiof"), 1, "invariant failure", f"symbol descriptor {field}")
       for key, doc, field in [
        ("identity-r", {**_IDENTITY, "r": "x"}, "r="),
        ("separable-eps", {**_SEPARABLE, "eps": "x"}, "eps="),
        ("separable-r", {**_SEPARABLE, "r": "x"}, "r="),
        ("separable-delta", {**_SEPARABLE, "delta": "x"}, "delta="),
        ("chirp-r", {**_CHIRP, "params": {"r": "x", "delta": 0.5}}, "params.r="),
        ("chirp-seed", {**_CHIRP, "params": {"r": 2.0, "delta": 0.5, "seed": 1.7}}, "params.seed="),
        ("bessel-m", {**_BESSEL, "params": {"m": "x"}}, "params.m="),
        ("params-list", {**_BESSEL, "params": [1]}, "params [1]"),
        ("b-file", {"kind": "analytic-preset", "preset": "multiplication", "params": {"b_file": 5}},
         "params.b_file=5"),
        # a rough chirp reads r from its params only
        ("chirp-top-level-r", {**_CHIRP, "r": 5}, "has unknown keys ['r']")]},
    **{f"test_apply_out_of_range_chirp_param_exits_2[{key}]": _row(
        *_apply({**_CHIRP, "params": params}), 2, "config error", text) for key, params, text in [
        ("negative-seed", {"r": 2.0, "delta": 0.5, "seed": -1}, "seed=-1"),
        ("overflowing-r", {"r": 5000, "delta": 0.5}, "r=5000"),
        ("delta-out-of-range", {"r": 2.0, "delta": 2.0}, "delta=2.0")]},
    **{f"test_unknown_config_key_exits_2[{key}]": _row(*_cfg(doc, "calibrate"), 2, "unknown keys")
       for key, doc in (("top-level", {"p_lsit": [4.0]}), ("grid", {"grid": {"N": 32, "n2": 5}}))},
    **{f"test_norm_refuses_s_r_and_p_before_building_the_frame[{key}]": _row(
        *_norm(_NOISE, *flags), 2, "config error", text, frame=False) for key, flags, text in [
        ("s-overflows", ["--s", "400"], "s=400"),
        ("r-overflows", ["--r", "1000"], "r=1000"),
        ("p-one", ["--p", "1"], "p=1")]},
    **{f"test_out_of_range_direction_count_exits_2_before_any_output[{M}]": _row(
        {}, ["--M-omega", str(M), "calibrate"], 2, f"M={M}") for M in (0, 3, -8)},
    **{f"test_a_direction_count_above_the_lattice_exits_2_before_any_output"
       f"[{command}-grid{i}-flags{i}-{M}]": _row(
        *_cfg({"grid": grid}, *flags, command), 2, f"M={M} exceeds", "256 lattice points")
       for command in ("calibrate", "bench-boundedness")
       for i, (grid, flags, M) in enumerate(_ABOVE_LATTICE)},
    "test_separable_descriptor_with_a_repeated_band_exits_1": _row(
        *_apply({"kind": "separable", "bands": [{"k": 1, "file": "band.fiof"}] * 2}, "band.fiof"),
        1, "band 1 twice"),
    **{f"test_negative_seed_exits_2_before_any_output[{command}]": _row(
        {}, ["--seed", "-1", command], 2, "seed=-1") for command in ("calibrate", "verify",
                                                                   "bench-boundedness")},
    "test_negative_config_seed_exits_2_before_any_output": _row(
        *_cfg({"seed": -3}, "bench-boundedness"), 2, "seed=-3"),
    **{f"test_norm_extreme_regularity_exits_2[{r}-{text}]": _row(
        *_norm(_ONES, "--r", r), 2, "config error", text)
       for r, text in (("inf", "finite"), ("nan", "finite"), ("1000", "below"))},
    **{f"test_norm_overflowing_smoothness_exits_2[{key}]": _row(
        *_norm(_NOISE, *flags), 2, "config error", text, "overflows") for key, flags, text in [
        ("s400", ["--s", "400"], "s=400.0"),
        ("s180-p4", ["--s", "180", "--p", "4"], "s=180.0, p=4.0"),
        ("s200-p4", ["--s", "200", "--p", "4"], "s=200.0")]},
    # the probe's first norm overflows, so bench exits 2 with nothing written
    **{f"test_bench_refuses_an_overflowing_s[{s}-{p}]": _row(
        *_cfg({**_BENCH64, "p_list": [p], "s_list": [s]}, "bench-boundedness"), 2,
        "config error", f"p={p} overflows") for s in (180.0, 200.0) for p in (2.0, 4.0)},
    # with no warning first, from this thread or a direction worker
    **{f"test_an_overflowing_s_is_refused_with_no_runtime_warning[{key}-always]": _row(
        inputs, argv, 2, "config error", "overflows") for key, (inputs, argv) in [
        ("norm-s400", ({"f.fiof": _NOISE}, [*_GRID64, "norm", "--field", "f.fiof", "--s", "400"])),
        ("norm-s180-p4", ({"f.fiof": _NOISE},
                          [*_GRID64, "norm", "--field", "f.fiof", "--s", "180", "--p", "4"])),
        ("bench-s200", _cfg({**_BENCH64, "p_list": [4.0], "s_list": [200.0]}, "bench-boundedness")),
        # at s = 0 no weight overflows, but |f|^4 does, in lp_norm first
        ("norm-1e100-p4", _norm(fk.GridField(_ONES.spec, np.full((32, 32), 1e100)), "--p", "4"))]},
    **{f"test_unusable_config_exits_2_before_any_output[{key}-{command}]": _row(
        *_cfg({"grid": _GRID32, **doc}, command), 2, "config error")
       for key, doc in (("r-negative", {"r": -1}), ("r-overflows", {"r": 1000}), ("delta", {"delta": 3}),
                        ("eps-large", {"eps": 5}), ("eps-zero", {"eps": 0}))
       for command in ("calibrate", "verify")},
    **{f"test_output_names_must_be_strings[{key}]": _row(
        *_cfg({"grid": _GRID32, "bands": [1], "p_list": [2.0], **doc}, "bench-boundedness"), 2,
        "must be a file name")
       for key, doc in (("csv-null", {"csv_out": None}), ("json-list", {"json_out": ["a"]}),
                        ("csv-int", {"csv_out": 1}))},
    # int(True) is 1 and float(True) 1.0, so a bool would otherwise be read as a number
    **{f"test_config_refuses_booleans_before_any_output[{key}-{command}]": _row(
        *_cfg({"grid": _GRID32, **doc}, command), 2, "config error", str(value))
       for key, doc, value in [("seed", {"seed": True}, True), ("seed-false", {"seed": False}, False),
                               ("r", {"r": True}, True), ("bands", {"bands": [True]}, True),
                               ("seed-and-bands", {"seed": True, "bands": [True]}, True),
                               ("grid-L", {"grid": {"N": 32, "L": True}}, True)]
       for command in ("calibrate", "verify")},
    **{f"test_apply_refuses_a_boolean_in_a_descriptor[{key}]": _row(
        *_apply(doc), 1, "symbol descriptor", "True") for key, doc in [
        ("r", {**_IDENTITY, "r": True}),
        ("params-r", {"kind": "dense", "preset": "rough_chirp", "params": {"r": True, "delta": 0.5}}),
        ("params-seed", {"kind": "dense", "preset": "rough_chirp",
                         "params": {"r": 1.5, "delta": 0.5, "seed": True}})]},
    # the field's grid is N = 32, L = 8 pi
    "test_apply_checks_a_descriptor_grid[other-grid]": _row(
        *_apply({**_IDENTITY, "grid": {"N": 64, "L": 8 * np.pi}}), 1, "differs from the given grid"),
    "test_apply_checks_a_descriptor_grid[invalid-grid]": _row(
        *_apply({**_IDENTITY, "grid": {"N": 30, "L": 1.0}}), 2, "N=30"),
    # a descriptor's grid follows the config's integer rule
    "test_apply_checks_a_descriptor_grid[fractional-N]": _row(
        *_apply({**_IDENTITY, "grid": {"N": 32.5, "L": 8 * np.pi}}), 1,
        "invariant failure", "symbol descriptor grid.N=32.5"),
    # the default config grid is N = 64, L = 32 pi
    "test_smooth_refuses_a_descriptor_grid_other_than_the_config_grid": _row(
        {"chirp.json": {**_CHIRP, "params": {"r": 1.5, "delta": 0.5}, "grid": _GRID32}},
        ["smooth", "--symbol", "chirp.json"], 1, "N=32", "N=64"),
    # the descriptor declares no grid; its band files lie on N = 32, L = 8 pi
    "test_smooth_refuses_band_files_on_a_grid_other_than_the_config_grid": _row(
        {**{f"band_{k}.fiof": a_k for k, a_k in _CHIRP32.bands.items()},
         "separable.json": {"kind": "separable", "r": 1.5, "delta": 0.5,
                            "bands": [{"k": k, "file": f"band_{k}.fiof"} for k in _CHIRP32.bands]}},
        ["--N", "64", "smooth", "--symbol", "separable.json"], 1, "the given grid", "N=32"),
    "test_apply_refuses_a_non_finite_order": _row(
        *_apply({**_BESSEL, "params": {"m": float("nan")}}), 2, "config error", "m=nan"),
}


def _refusal_test(name):
    # one test of the rows keyed name, or a parametrized one of the rows keyed name[id]
    rows = {key: row for key, row in _REFUSALS.items() if key.partition("[")[0] == name}
    if list(rows) == [name]:
        def test(tmp_path, monkeypatch, capfd):
            _refuses(rows[name], tmp_path, monkeypatch, capfd)
        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=[key[len(name) + 1:-1] for key in rows])
    def test(row, tmp_path, monkeypatch, capfd):
        _refuses(row, tmp_path, monkeypatch, capfd)
    return test


for _name in dict.fromkeys(key.partition("[")[0] for key in _REFUSALS):
    globals()[_name] = _refusal_test(_name)
