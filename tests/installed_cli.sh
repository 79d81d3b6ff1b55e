#!/usr/bin/env bash
# End-to-end checks of the fiokit command on PATH, in a fresh temporary directory:
# each command succeeds, or is refused with its exit code before it prints anything.
set -Eeuo pipefail
trap 'echo "installed_cli.sh: line $LINENO failed: $BASH_COMMAND" >&2' ERR
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
export PYTHONWARNINGS=error::RuntimeWarning

# py 'statements': python with the modules the checks share
py() { python -c "import csv, json, math, struct, sys; import numpy as np, fiokit as fk; $1"; }

# refused CODE [FILE...] -- ARGS...: fiokit ARGS exits CODE, prints nothing to stdout
# and no Traceback or RuntimeWarning to stderr, and writes none of the FILEs
refused() {
    local want=$1 code=0 files=()
    shift
    while [ "$1" != -- ]; do files+=("$1"); shift; done
    shift
    echo "refused $want: fiokit $*"
    fiokit "$@" > refused_out.txt 2> refused_err.txt || code=$?
    cat refused_err.txt
    test "$code" -eq "$want"
    test ! -s refused_out.txt
    if grep -q -e Traceback -e RuntimeWarning refused_err.txt; then return 1; fi
    for file in "${files[@]}"; do test ! -e "$file"; done
}

# importing the package and its CLI loads no scipy module
py 'import fiokit.cli; assert not any(m.startswith("scipy") for m in sys.modules), sorted(m for m in sys.modules if m.startswith("scipy"))'
fiokit calibrate
fiokit verify
# bench-boundedness writes plain numbers
echo '{"grid": {"N": 64, "L": 100.53096491487338}, "bands": [1, 2], "p_list": [2.0, 4.0], "csv_out": "run.csv", "json_out": "run.json"}' > bench.json
fiokit --config bench.json bench-boundedness
py 'rows = list(csv.DictReader(open("run.csv"))); assert len(rows) == 16; [float(v) for row in rows for k, v in row.items() if k != "member"]'
py 'row = json.load(open("run.json"))["trends"]["2.0"]; assert math.isfinite(row["spectral_bound"]) and row["spectral_bound"] >= row["l2_sup_ratio"], row'
# apply loads a descriptor and refuses a malformed one
py 'spec = fk.GridSpec(N=32, L=8 * np.pi); fk.write_fiof("f.fiof", fk.GridField(spec, np.ones(spec.shape)))'
echo '{"kind": "analytic-preset", "preset": "identity"}' > identity.json
fiokit apply --symbol identity.json --field f.fiof --output out.fiof
echo '{"kind": "analytic-preset", "preset": "identity", "r": "x"}' > bad.json
refused 1 bad.fiof -- apply --symbol bad.json --field f.fiof --output bad.fiof
# a misspelled config key, a zero direction count, a negative seed, an extreme r, bad configs
echo '{"p_lsit": [4.0], "grid": {"N": 32}}' > typo.json
refused 2 -- --config typo.json calibrate
refused 2 -- --M-omega 0 calibrate
refused 2 -- --seed -1 calibrate
refused 2 -- norm --field f.fiof --r inf
refused 2 -- norm --field f.fiof --r 1000
echo '{"r": -1}' > r.json
refused 2 -- --config r.json verify
echo '{"delta": 3}' > delta.json
refused 2 -- --config delta.json calibrate
echo '{"eps": 5}' > eps.json
refused 2 -- --config eps.json calibrate
echo '{"csv_out": null}' > csv.json
refused 2 boundedness.csv boundedness.json -- --config csv.json bench-boundedness
echo '{"delta": 0.75}' > delta75.json
refused 2 boundedness.csv boundedness.json -- --config delta75.json bench-boundedness
echo '{"csv_out": "missing/run.csv"}' > missing.json
refused 3 boundedness.csv boundedness.json -- --config missing.json bench-boundedness
echo '{"grid": {"N": 32, "L": 50.26548245743669}, "bands": [1, 2], "p_list": [2.0], "csv_out": "out.txt", "json_out": "./out.txt"}' > one_file.json
refused 2 out.txt -- --config one_file.json bench-boundedness
# out-of-range bench bands, a descriptor grid other than the field's, a non-finite order
echo '{"grid": {"N": 128, "L": 100.53096491487338}, "bands": [1, 99]}' > bands99.json
refused 2 boundedness.csv boundedness.json -- --config bands99.json bench-boundedness
echo '{"kind": "analytic-preset", "preset": "identity", "grid": {"N": 64, "L": 25.132741228718345}}' > grid64.json
refused 1 grid64.fiof -- apply --symbol grid64.json --field f.fiof --output grid64.fiof
echo '{"kind": "analytic-preset", "preset": "identity", "grid": {"N": 30, "L": 1.0}}' > grid30.json
refused 2 grid30.fiof -- apply --symbol grid30.json --field f.fiof --output grid30.fiof
echo '{"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": NaN}}' > bessel_nan.json
refused 2 bessel_nan.fiof -- apply --symbol bessel_nan.json --field f.fiof --output bessel_nan.fiof
# an overflowing smoothness and descriptor keys that loading does not read
py 'spec = fk.GridSpec(N=64, L=2 * np.pi); fk.write_fiof("f64.fiof", fk.GridField(spec, np.random.default_rng(0).standard_normal(spec.shape)))'
refused 2 -- norm --field f64.fiof --s 400
refused 2 -- norm --field f64.fiof --s 180 --p 4
echo '{"grid": {"N": 64, "L": 6.283185307179586}, "bands": [1, 2], "p_list": [4.0], "s_list": [200.0]}' > s200.json
refused 2 boundedness.csv boundedness.json -- --config s200.json bench-boundedness
echo '{"kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 2, "delta": 0.5, "sede": 3}, "detla": 0.5}' > typo_sym.json
refused 1 typo_sym.fiof -- apply --symbol typo_sym.json --field f.fiof --output typo_sym.fiof
echo '{"kind": "analytic-preset", "preset": "identity", "grid": {"N": 32, "L": 25.132741228718345, "M": 5}}' > grid_m.json
refused 1 grid_m.fiof -- apply --symbol grid_m.json --field f.fiof --output grid_m.fiof
echo '{"kind": "separable", "bands": [{"k": 1, "file": 5}]}' > file5.json
refused 1 file5.fiof -- apply --symbol file5.json --field f.fiof --output file5.fiof
# at s = 0 no weight overflows, but |f|^4 of a 1e100 field does, in lp_norm first
py 'spec = fk.GridSpec(N=32, L=8 * np.pi); fk.write_fiof("big.fiof", fk.GridField(spec, np.full(spec.shape, 1e100)))'
refused 2 -- norm --field big.fiof --p 4
# apply gives one field through the dense and the separable chirp
py 'spec = fk.GridSpec(N=32, L=8 * np.pi); rng = np.random.default_rng(5); fk.write_fiof("rand.fiof", fk.GridField(spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)))'
echo '{"kind": "dense", "preset": "rough_chirp", "params": {"r": 1.5, "delta": 0.5}}' > chirp_dense.json
echo '{"kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 1.5, "delta": 0.5}}' > chirp_separable.json
fiokit apply --symbol chirp_dense.json --field rand.fiof --output chirp_dense.fiof
fiokit apply --symbol chirp_separable.json --field rand.fiof --output chirp_separable.fiof
py 'd, s = (fk.read_fiof(f"chirp_{kind}.fiof").samples for kind in ("dense", "separable")); rel = np.abs(d - s).max() / np.abs(s).max(); print(f"dense vs separable: rel={rel:.1e}"); assert rel <= 1e-10'
echo '{"seed": true}' > seed_bool.json
refused 2 -- --config seed_bool.json calibrate
# norm reads the field, and apply refuses an n = 3 file
fiokit norm --field f.fiof --p 4 | tee norm.json
py 'doc = json.load(open("norm.json")); assert all(math.isfinite(doc[k]) for k in ("lp", "sobolev", "zygmund", "hpfio"))'
py 'open("n3.fiof", "wb").write(b"FIOF" + struct.pack("<III d", 1, 3, 16, 1.0) + np.ones(16**3, dtype="<c16").tobytes())'
refused 1 n3_out.fiof -- apply --symbol identity.json --field n3.fiof --output n3_out.fiof
# smooth densifies and splits a separable descriptor (exit 1 when the split residual
# exceeds 1e-12); it declares no grid, so the command line gives the band files' grid
py 'sym = fk.preset_rough_chirp(fk.GridSpec(N=32, L=8 * np.pi), 1.5, 0.5, seed=3); [fk.write_fiof(f"band_{k}.fiof", a_k) for k, a_k in sym.bands.items()]; json.dump({"kind": "separable", "r": sym.r, "delta": sym.delta, "bands": [{"k": k, "file": f"band_{k}.fiof"} for k in sym.bands]}, open("separable.json", "w"))'
fiokit --N 32 --L 25.132741228718345 smooth --symbol separable.json | tee smooth.json
refused 1 -- --N 64 smooth --symbol separable.json
# verify splits above delta = 3/4 and refuses N above the dense cap; bench refuses p_list []
echo '{"delta": 0.9}' > delta09.json
fiokit --config delta09.json verify
refused 1 -- --N 256 verify
echo '{"p_list": []}' > p_empty.json
refused 2 boundedness.csv boundedness.json -- --config p_empty.json bench-boundedness
# no fiokit reduction or solve reaches BLAS or LAPACK, whose sums depend on the thread count
for threads in 1 2; do
    mkdir "blas$threads"
    (cd "blas$threads" && OPENBLAS_NUM_THREADS=$threads OMP_NUM_THREADS=$threads fiokit --N 128 bench-boundedness)
done
cmp blas1/boundedness.csv blas2/boundedness.csv
cmp blas1/boundedness.json blas2/boundedness.json
# a period whose powers or default direction count overflow
for L in 1e-200 1e-100 1e200; do
    echo "{\"grid\": {\"N\": 16, \"L\": $L}}" > period.json
    refused 2 -- --config period.json calibrate
done
