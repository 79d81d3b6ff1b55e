import dataclasses
import json
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import fiokit as fk
from conftest import band_limited, random_field, refusal_tests


# ---------------------------------------------------------------------------
# dense application
# ---------------------------------------------------------------------------


def test_apply_dense_identity(spec_op, rng):
    f = random_field(spec_op, rng)
    out = fk.apply_dense(fk.preset_identity(spec_op), f)
    assert np.abs(out.samples - f.samples).max() <= 1e-11 * np.abs(f.samples).max()


def test_apply_dense_multiplication(spec_op, rng):
    b = random_field(spec_op, rng, real=True)
    f = random_field(spec_op, rng)
    out = fk.apply_dense(fk.preset_multiplication(b), f)
    prod = b.samples * f.samples
    assert np.abs(out.samples - prod).max() <= 1e-11 * np.abs(prod).max()


def test_apply_dense_bessel_multiplier(spec_op, rng):
    f = random_field(spec_op, rng)
    order = 0.8
    out = fk.apply_dense(fk.preset_multiplier_bessel(spec_op, order), f)
    ref = fk.bessel_potential(f, order)
    assert np.abs(out.samples - ref.samples).max() <= 1e-10 * np.abs(ref.samples).max()


def test_apply_dense_adjointness(spec_op, chirp_op, rng):
    a = chirp_op.densify()
    f = random_field(spec_op, rng)
    g = random_field(spec_op, rng)
    lhs = fk.l2_inner(fk.apply_dense(a, f), g)
    rhs = fk.l2_inner(f, fk.apply_dense_adjoint(a, g))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def counted(a):
    """a with a(., eta) wrapped to record every evaluation."""
    calls = []
    inner = a.field
    a.field = lambda eta: calls.append(eta) or inner(eta)
    return a, calls


def test_apply_dense_zero_field_evaluates_no_symbol(spec_op, chirp_op):
    a, calls = counted(chirp_op.densify())
    out = fk.apply_dense(a, fk.GridField(spec_op, np.zeros(spec_op.shape)))
    assert len(calls) == 0
    assert np.all(out.samples == 0)


def test_apply_dense_adjoint_evaluates_every_eta(spec_op):
    a, calls = counted(fk.preset_identity(spec_op))
    fk.apply_dense_adjoint(a, fk.GridField(spec_op, np.zeros(spec_op.shape)))
    assert len(calls) == spec_op.N**2


def _band_sum_from_zero(chirp):
    """The densified slice as a band sum into a zeroed grid, weights from band_weights."""
    def slice_at(eta):
        w = chirp.chi.band_weights(np.hypot(eta[0], eta[1])).tolist()
        out = np.zeros(chirp.spec.shape, dtype=complex)
        for k, a_k in chirp.bands.items():
            if w[k] != 0.0:
                out += w[k] * a_k.samples
        return out
    return slice_at


def _per_eta_rows(spec, slice_at, coef):
    """(i1, e^{ix1.xi_i1}, [(i2, c_i, a(., eta_i), e^{ix2.xi_i2})]) per lattice row with a
    c_i != 0, each c_i e^{ix2.xi_i2} left to the caller, one eta at a time."""
    etas = fk.lattice(spec).points().reshape(spec.shape + (2,))
    E = np.exp(1j * np.outer(spec.x_axis(), fk.lattice(spec).axis))
    for i1 in np.flatnonzero(coef.any(axis=1)):
        yield i1, E[:, i1, None], [(i2, coef[i1, i2], slice_at(etas[i1, i2]), E[:, i2])
                                   for i2 in np.flatnonzero(coef[i1])]


def _reference_apply(spec, slice_at, f):
    out = np.zeros(spec.shape, dtype=complex)
    acc, term = np.empty_like(out), np.empty_like(out)
    for _, e1, row in _per_eta_rows(spec, slice_at, fk.forward_transform(f)):
        acc.fill(0.0)
        for _, coef, slice_, e2 in row:
            acc += np.multiply(slice_, coef * e2, out=term)
        acc *= e1
        out += acc
    out *= spec.L ** -spec.n
    return out


def _reference_adjoint(spec, slice_at, g):
    spectrum = np.empty(spec.shape, dtype=complex)
    conj_g, h, term = np.conj(g.samples), np.empty_like(spectrum), np.empty_like(spectrum)
    for i1, e1, row in _per_eta_rows(spec, slice_at, np.ones(spec.shape)):
        np.multiply(conj_g, e1, out=h)
        for i2, _, slice_, e2 in row:
            spectrum[i1, i2] = (np.multiply(slice_, h, out=term).sum(axis=0) * e2).sum()
    np.conjugate(spectrum, out=spectrum)
    spectrum *= spec.cell_volume
    return spectrum


@pytest.mark.parametrize("case", ["chirp-seed0", "chirp-seed7", "identity", "multiplication"])
def test_dense_cores_match_the_per_eta_walk_bit_for_bit(case):
    # the cores bit for bit; the public apply and adjoint add an F^{-1} F round trip
    spec = fk.GridSpec(N=64, L=8.0 * np.pi)
    rng = np.random.default_rng(11)
    f, g = random_field(spec, rng), random_field(spec, rng)
    if case.startswith("chirp"):
        chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=int(case[-1]))
        a, slice_at = chirp.densify(), _band_sum_from_zero(chirp)
    else:
        a = (fk.preset_identity(spec) if case == "identity"
             else fk.preset_multiplication(random_field(spec, rng)))
        slice_at = a.eval
    synth, analyze = _reference_apply(spec, slice_at, f), _reference_adjoint(spec, slice_at, g)
    assert fk.operators._dense_synth(a, fk.forward_transform(f)).tobytes() == synth.tobytes()
    assert fk.operators._dense_analyze(a, g.samples).tobytes() == analyze.tobytes()
    adjoint = fk.inverse_transform(analyze, spec).samples
    for got, want in [(fk.apply_dense(a, f).samples, synth),
                      (fk.apply_dense_adjoint(a, g).samples, adjoint)]:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# separable application
# ---------------------------------------------------------------------------


def test_apply_separable_identity(spec_op, fam_op, rng):
    bands = {
        k: fk.GridField(spec_op, np.ones(spec_op.shape, complex))
        for k in range(fam_op.J_max + 1)
    }
    sym = fk.SeparableSymbol(spec_op, bands, fam_op)
    f = random_field(spec_op, rng)
    out = fk.apply_separable(sym, f)
    assert np.abs(out.samples - f.samples).max() <= 1e-12 * np.abs(f.samples).max()


def test_apply_separable_off_band_is_zero(spec_op, fam_op, rng):
    # symbol supported on band 2 only; input on the band-4 plateau
    sym = fk.SeparableSymbol(
        spec_op, {2: fk.GridField(spec_op, np.ones(spec_op.shape, complex))}, fam_op
    )
    f = band_limited(spec_op, rng, 2.0**3 * 0.95, 2.0**3 * 1.1)
    out = fk.apply_separable(sym, f)
    assert np.abs(out.samples).max() <= 1e-13 * np.abs(f.samples).max()


def test_dense_separable_agreement(spec_op, chirp_op, rng):
    f = random_field(spec_op, rng)
    sep = fk.apply_separable(chirp_op, f)
    dense = fk.apply_dense(chirp_op.densify(), f)
    assert np.abs(sep.samples - dense.samples).max() <= 1e-10 * np.abs(sep.samples).max()


def test_apply_separable_adjointness(spec_op, chirp_op, rng):
    f = random_field(spec_op, rng)
    g = random_field(spec_op, rng)
    lhs = fk.l2_inner(fk.apply_separable(chirp_op, f), g)
    rhs = fk.l2_inner(f, fk.apply_separable_adjoint(chirp_op, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.fixture(scope="module")
def complex_sym(spec_op, fam_op):
    # complex band factors: a conjugation slip in the adjoint shows here,
    # where the chirp's real a_k would hide it
    rng = np.random.default_rng(11)
    bands = {k: random_field(spec_op, rng) for k in range(1, fam_op.J_max + 1, 2)}
    return fk.SeparableSymbol(spec_op, bands, fam_op)


def test_apply_separable_adjointness_complex_factors(spec_op, complex_sym, rng):
    f = random_field(spec_op, rng)
    g = random_field(spec_op, rng)
    lhs = fk.l2_inner(fk.apply_separable(complex_sym, f), g)
    rhs = fk.l2_inner(f, fk.apply_separable_adjoint(complex_sym, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_separable_cores_match_band_definitions(spec_op, complex_sym, rng):
    # T f = sum_k a_k chi_k(D) f and T* g = sum_k chi_k(D)(conj(a_k) g),
    # one public multiplier apply per band
    f = random_field(spec_op, rng)
    g = random_field(spec_op, rng)
    synth = np.zeros(spec_op.shape, complex)
    analyze = np.zeros(spec_op.shape, complex)
    for k, a_k in complex_sym.bands.items():
        chi_k = fk.SpectralMultiplier(spec_op, complex_sym.chi.values[k])
        synth += a_k.samples * fk.apply_multiplier(f, chi_k).samples
        conj_g = fk.GridField(spec_op, np.conj(a_k.samples) * g.samples)
        analyze += fk.apply_multiplier(conj_g, chi_k).samples
    for out, ref in [
        (fk.apply_separable(complex_sym, f).samples, synth),
        (fk.apply_separable_adjoint(complex_sym, g).samples, analyze),
    ]:
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_separable_cores_read_only_returned_arrays(
    spec_op, spec64, frame64, fam64, complex_sym, rng, request
):
    # numpy.fft's out= contract: the transform reads its input, writes the
    # result into out and returns out, and touches no other array.  fft_calls
    # models exactly that, with the result computed from a copy of the input,
    # and refuses a call without out=.  The results must not change, and the
    # caller's samples and spectrum must come back untouched.
    f = random_field(spec_op, rng)
    spectrum = fk.forward_transform(f)
    chirp = fk.preset_rough_chirp(spec64, 1.5, 0.5, seed=9, chi=fam64)
    step = fk.operators._conjugated_step(chirp, frame64)
    v_hat = fk.forward_transform(random_field(spec64, rng))
    runs = {
        "apply": lambda: fk.apply_separable(complex_sym, f).samples,
        "adjoint": lambda: fk.apply_separable_adjoint(complex_sym, f).samples,
        "synth": lambda: fk.operators._synth(complex_sym, spectrum),
        "analyze": lambda: fk.operators._analyze(complex_sym, spectrum),
        # the chirp's low bands run on product grids smaller than spec64's
        "synth-chirp": lambda: fk.operators._synth(chirp, v_hat),
        "analyze-chirp": lambda: fk.operators._analyze(chirp, v_hat),
        "step": lambda: step(v_hat),
    }
    expected = {name: run() for name, run in runs.items()}
    calls = request.getfixturevalue("fft_calls")
    inputs = {"f": f.samples, "spectrum": spectrum, "v_hat": v_hat}
    before = {name: x.tobytes() for name, x in inputs.items()}
    for name, run in runs.items():
        calls.clear()
        out = run()
        assert calls, name
        assert np.abs(out - expected[name]).max() <= 1e-13 * np.abs(expected[name]).max(), name
        for key, x in inputs.items():
            assert x.tobytes() == before[key], (name, key)


# ---------------------------------------------------------------------------
# product grids: each band's product on the smallest grid that holds it
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chirp256(spec_fine, fam_fine):
    return fk.preset_rough_chirp(spec_fine, 2.0, 0.5, seed=0, chi=fam_fine)


def product_grid_of(a):
    """{k: M_k} from the symbol's plan."""
    return {k: grid.N for grid, ks in a._grids for k in ks}


def all_bands_on_n(a, spectrum, adjoint):
    """The pair's spectrum with every band's product on a's own grid: the band sum
    Sum_k F(a_k F^{-1}(chi_k s)), or Sum_k chi_k F(conj(a_k) F^{-1} s) for the adjoint,
    from the public transforms."""
    spec, out = a.spec, np.zeros(a.spec.shape, dtype=complex)
    g = fk.inverse_transform(spectrum, spec).samples
    for k, a_k in a.bands.items():
        chi_k = a.chi.values[k]
        if adjoint:
            out += chi_k * fk.forward_transform(fk.GridField(spec, np.conj(a_k.samples) * g))
        else:
            band = fk.inverse_transform(chi_k * spectrum, spec).samples
            out += fk.forward_transform(fk.GridField(spec, a_k.samples * band))
    return out


@pytest.mark.parametrize("N, L, r, delta", [(256, 2 * np.pi, 2.0, 0.5),
                                            (128, 8 * np.pi, 1.0, 0.25),
                                            (128, 2 * np.pi, 1.5, 0.5)])
def test_product_grids_match_the_band_sum_on_n(N, L, r, delta, rng):
    spec = fk.GridSpec(N=N, L=L)
    chirp = fk.preset_rough_chirp(spec, r, delta, seed=0)
    assert min(product_grid_of(chirp).values()) < N
    spectrum = fk.forward_transform(random_field(spec, rng))
    for core, adjoint in [(fk.operators._synth, False), (fk.operators._analyze, True)]:
        want = all_bands_on_n(chirp, spectrum, adjoint)
        assert np.abs(core(chirp, spectrum) - want).max() <= 1e-14 * np.abs(want).max()


def test_random_band_factors_stay_on_n(spec_op, complex_sym):
    # random a_k fill the lattice, so every band's product wraps on N
    assert set(product_grid_of(complex_sym).values()) == {spec_op.N}


def test_chirp_plan_at_n256(spec_fine, chirp256):
    plan = product_grid_of(chirp256)
    assert {k: M for k, M in plan.items() if M < spec_fine.N} == {
        0: 16, 1: 16, 2: 16, 3: 32, 4: 64, 5: 128}
    assert sorted(k for k, M in plan.items() if M == spec_fine.N) == [6, 7, 8, 9]


def test_product_grid_adjointness(spec_fine, chirp256, rng):
    f, g = random_field(spec_fine, rng), random_field(spec_fine, rng)
    lhs = fk.l2_inner(fk.apply_separable(chirp256, f), g)
    rhs = fk.l2_inner(f, fk.apply_separable_adjoint(chirp256, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_plan_runs_its_transforms_once(spec_fine, fam_fine, rng, fft_calls):
    chirp = fk.preset_rough_chirp(spec_fine, 2.0, 0.5, seed=0, chi=fam_fine)
    f = random_field(spec_fine, rng)
    fft_calls.clear()
    fk.apply_separable(chirp, f)
    first = len(fft_calls)
    fft_calls.clear()
    fk.apply_separable(chirp, f)
    # F and F^{-1}, and per product grid one transform per band and one more
    assert len(fft_calls) == 2 + sum(len(ks) + 1 for _, ks in chirp._grids)
    # the plan: one forward transform per band with 4 C_k < N, bands 0 to 6
    assert first - len(fft_calls) == 7


def test_loaded_symbol_gets_the_written_plan(tmp_path):
    spec = fk.GridSpec(N=128, L=2 * np.pi)
    chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=0)
    for k, a_k in chirp.bands.items():
        fk.write_fiof(tmp_path / f"band_{k}.fiof", a_k)
    doc = {"kind": "separable", "r": chirp.r, "delta": chirp.delta,
           "bands": [{"k": k, "file": f"band_{k}.fiof"} for k in chirp.bands]}
    (tmp_path / "sym.json").write_text(json.dumps(doc))
    loaded = fk.load_symbol(tmp_path / "sym.json")
    assert loaded._grids == chirp._grids
    assert min(product_grid_of(loaded).values()) < spec.N


def test_bands_cannot_change_under_the_plan(rng):
    # band 3 runs on a 32-point grid; a random field in its place would need all 64
    spec = fk.GridSpec(N=64, L=2 * np.pi)
    chirp = fk.preset_rough_chirp(spec, 2.0, 0.5, seed=0)
    bands = dict(chirp.bands)
    sym = fk.SeparableSymbol(spec, bands, chirp.chi, r=chirp.r, delta=chirp.delta)
    f, g = random_field(spec, rng), random_field(spec, rng)
    want = fk.apply_separable(sym, f).samples.tobytes()
    assert product_grid_of(sym)[3] == 32
    with pytest.raises(TypeError):
        sym.bands[3] = g
    bands[3] = g
    assert sym.bands[3] is chirp.bands[3]
    assert fk.apply_separable(sym, f).samples.tobytes() == want


def test_a_separable_symbol_is_frozen(spec_fine, chirp256, rng):
    # band 3 runs on a 32-point grid: bands reassigned after the first apply, with a
    # random field in its place, would leave the next apply on the stale plan
    sym = fk.SeparableSymbol(spec_fine, chirp256.bands, chirp256.chi, r=chirp256.r,
                             delta=chirp256.delta)
    f = random_field(spec_fine, rng)
    want = fk.apply_symbol(sym, f).samples.tobytes()
    assert product_grid_of(sym)[3] == 32
    with pytest.raises(dataclasses.FrozenInstanceError):
        sym.bands = {**sym.bands, 3: random_field(spec_fine, rng)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        sym.residual = 1.0
    assert sym.bands[3] is chirp256.bands[3]
    assert fk.apply_symbol(sym, f).samples.tobytes() == want


def test_the_kind_specific_names_are_the_generic_ones():
    assert fk.apply_dense is fk.apply_separable is fk.apply_symbol
    assert fk.apply_dense_adjoint is fk.apply_separable_adjoint is fk.operators._adjoint
    assert fk.build_lp_family is fk.LittlewoodPaleyFamily


def test_step_runs_two_transforms_per_grid_and_two_per_band(spec_fine, chirp256, fft_calls):
    # a unit frame weight: the step is B*B = T*T, and its transforms are the pair's
    frame = SimpleNamespace(spec=spec_fine, q_values=np.ones(spec_fine.shape),
                            energy=np.zeros(spec_fine.shape))
    step = fk.operators._conjugated_step(chirp256, frame)
    v_hat = fk.forward_transform(random_field(spec_fine, np.random.default_rng(3)))
    step(v_hat)
    fft_calls.clear()
    step(v_hat)
    assert len(fft_calls) == sum(2 * len(ks) + 2 for _, ks in chirp256._grids)
    assert Counter(call.shape[0] for call in fft_calls) == {256: 10, 128: 4, 64: 4, 32: 4, 16: 8}


def test_overflowing_band_mass_stays_on_n():
    spec = fk.GridSpec(N=32, L=2 * np.pi)
    fam = fk.build_lp_family(spec)
    big = fk.GridField(spec, np.full(spec.shape, 1e308, dtype=complex))
    one = fk.GridField(spec, np.ones(spec.shape, dtype=complex))
    sym = fk.SeparableSymbol(spec, {0: big, 1: one}, fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert product_grid_of(sym) == {0: 32, 1: 16}


def test_apply_symbol_dispatch(spec_op, chirp_op, rng):
    f = random_field(spec_op, rng)
    out_sep = fk.apply_symbol(chirp_op, f)
    assert np.abs(out_sep.samples - fk.apply_separable(chirp_op, f).samples).max() == 0.0
    ident = fk.preset_identity(spec_op)
    assert np.abs(fk.apply_symbol(ident, f).samples - fk.apply_dense(ident, f).samples).max() == 0.0


# ---------------------------------------------------------------------------
# band-support verification
# ---------------------------------------------------------------------------


def test_verify_band_support_compliant(spec_fine, rng):
    k = 6
    # F(a_k) inside [c 2^{(k-2)/2}, 2^{k-3}] = [1, 8] (gamma = 1, c = 1/4)
    a_k = band_limited(spec_fine, rng, 1.05, 7.9)
    f_k = band_limited(spec_fine, rng, 2.0**5 * 0.6, 2.0**5 * 1.7)
    ok, report = fk.verify_band_support(a_k, f_k, k)
    assert ok
    assert report["precondition_ok"]
    assert report["leak"] <= 1e-12
    assert report["window"] == (2.0 ** (k - 3), 2.0 ** (k + 1))


def test_verify_band_support_constant_symbol(spec_fine, rng):
    # F(constant) sits at xi = 0, violating the precondition, but the
    # product support equals supp F(f_k), still inside the window
    k = 6
    a_k = fk.GridField(spec_fine, np.full(spec_fine.shape, 2.0, dtype=complex))
    f_k = band_limited(spec_fine, rng, 2.0**5 * 0.6, 2.0**5 * 1.7)
    ok, report = fk.verify_band_support(a_k, f_k, k)
    assert ok
    assert not report["precondition_ok"]


def test_verify_band_support_adversarial(spec_fine, rng):
    k = 6
    # a_k concentrated at |xi| = 48, far above the allowed upper edge 8:
    # the product spectrum spills below 2^{k-3}
    a_k = band_limited(spec_fine, rng, 46.0, 50.0)
    f_k = band_limited(spec_fine, rng, 2.0**5 * 0.6, 2.0**5 * 1.7)
    ok, report = fk.verify_band_support(a_k, f_k, k)
    assert not ok
    assert not report["precondition_ok"]
    assert report["leak"] > 1e-6


# ---------------------------------------------------------------------------
# spectral-norm estimation
# ---------------------------------------------------------------------------


def test_power_iteration_band_projection(spec64):
    # T = chi_2(D): a projection-like multiplier whose largest lattice
    # value is exactly 1 on the band plateau
    fam = fk.build_lp_family(spec64)
    sym = fk.SeparableSymbol(
        spec64, {2: fk.GridField(spec64, np.ones(spec64.shape, complex))}, fam
    )
    sigma = fk.power_iteration(
        lambda v: fk.apply_separable(sym, v),
        lambda v: fk.apply_separable_adjoint(sym, v),
        spec64,
    )
    # convergence is slow near the plateau edges where the multiplier is
    # just below 1, so the drift criterion stops a little short
    assert sigma == pytest.approx(1.0, abs=1e-3)
    assert sigma <= 1.0 + 1e-12


def test_power_iteration_zero_operator(spec64):
    fam = fk.build_lp_family(spec64)
    sym = fk.SeparableSymbol(
        spec64, {2: fk.GridField(spec64, np.zeros(spec64.shape, complex))}, fam
    )
    sigma = fk.power_iteration(
        lambda v: fk.apply_separable(sym, v),
        lambda v: fk.apply_separable_adjoint(sym, v),
        spec64,
    )
    assert sigma == 0.0


def test_certified_bound_dominates_multiplier_norm(spec64, frame64):
    # T = <D>^{-1/2} commutes with the conjugation, so the certified
    # bound is at least the largest multiplier value (= 1 at xi = 0 is
    # damped by the frame weight; the bound still dominates every ratio)
    fam = fk.build_lp_family(spec64)
    bands = {
        k: fk.GridField(spec64, np.ones(spec64.shape, complex))
        for k in range(fam.J_max + 1)
    }
    sym = fk.SeparableSymbol(spec64, bands, fam)  # identity operator
    bound = fk.certified_l2_bound(sym, frame64)
    assert bound == pytest.approx(np.sqrt(2.0), rel=1e-6)


def identity_bands(spec, fam):
    return {k: fk.GridField(spec, np.ones(spec.shape, complex)) for k in range(fam.J_max + 1)}


def count_steps(monkeypatch):
    """Wrap fiokit.operators._conjugated_step: record each step it returns
    and the number of times that step is run."""
    calls = []
    original = fk.operators._conjugated_step

    def wrapped(a, frame):
        record = {"step": original(a, frame), "steps": 0}
        calls.append(record)

        def counted(v_hat):
            record["steps"] += 1
            return record["step"](v_hat)

        return counted

    monkeypatch.setattr(fk.operators, "_conjugated_step", wrapped)
    return calls


def public_composition(a, frame, apply_fn, adjoint_fn):
    """Phi T Phi^{-1} and its adjoint, composed from the public multiplier
    apply and apply_fn(a, .), adjoint_fn(a, .) for T and T*."""
    phi = np.sqrt(frame.q_values**2 + frame.energy)
    phi_m = fk.SpectralMultiplier(frame.spec, phi)
    phi_inv = fk.SpectralMultiplier(frame.spec, 1.0 / phi)

    def conj_apply(v):
        return fk.apply_multiplier(apply_fn(a, fk.apply_multiplier(v, phi_inv)), phi_m)

    def conj_adjoint(v):
        return fk.apply_multiplier(adjoint_fn(a, fk.apply_multiplier(v, phi_m)), phi_inv)

    return conj_apply, conj_adjoint


def test_certified_bound_matches_conjugated_composition(spec64, frame64, fam64, monkeypatch, request):
    # oracle: Phi T Phi^{-1} and its adjoint, composed from the public
    # multiplier and separable applies
    chirp = fk.preset_rough_chirp(spec64, 1.5, 0.5, seed=9, chi=fam64)
    conj_apply, conj_adjoint = public_composition(
        chirp, frame64, fk.apply_separable, fk.apply_separable_adjoint)
    oracle_applies = 0

    def counted_apply(v):
        nonlocal oracle_applies
        oracle_applies += 1
        return conj_apply(v)

    oracle = np.sqrt(2.0) * fk.power_iteration(counted_apply, conj_adjoint, spec64)
    calls = count_steps(monkeypatch)
    bound = fk.certified_l2_bound(chirp, frame64)
    assert bound == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert calls[0]["steps"] == oracle_applies

    # one power step: per product grid, one transform per band in each of T, T* and
    # one between that grid and the spectrum in each
    v = fk.GridField(spec64, np.random.default_rng(0).standard_normal(spec64.shape))
    v_hat = fk.forward_transform(v)
    fft_calls = request.getfixturevalue("fft_calls")
    calls[0]["step"](v_hat)
    assert len(fft_calls) == sum(2 * len(ks) + 2 for _, ks in chirp._grids)


@pytest.mark.parametrize("kind", ["separable", "dense", "multiplier"])
def test_conjugated_step_is_the_public_step_on_spectra(spec64, frame64, fam64, kind, rng):
    # one certificate step on F v is F of one step of the public composition on v
    chirp = fk.preset_rough_chirp(spec64, 1.5, 0.5, seed=9, chi=fam64)
    mags = fk.lattice(spec64).mags
    # not unitary, so a lost conjugation or |m|^2 shows
    damped_wave = fk.SpectralMultiplier(spec64, (1.0 + mags**2) ** -0.25 * np.exp(-0.5j * mags))
    a, apply_fn, adjoint_fn = {
        "separable": (chirp, fk.apply_separable, fk.apply_separable_adjoint),
        "dense": (chirp.densify(), fk.apply_dense, fk.apply_dense_adjoint),
        "multiplier": (damped_wave, lambda m, v: fk.apply_multiplier(v, m),
                       lambda m, v: fk.apply_multiplier(
                           v, fk.SpectralMultiplier(spec64, np.conj(m.values)))),
    }[kind]
    conj_apply, conj_adjoint = public_composition(a, frame64, apply_fn, adjoint_fn)
    v = random_field(spec64, rng)
    want = fk.forward_transform(conj_adjoint(conj_apply(v)))
    got = fk.operators._conjugated_step(a, frame64)(fk.forward_transform(v))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_certified_bound_rejects_other_grid(spec64, frame64, monkeypatch, fft_calls):
    # equal shapes, different periods: nothing downstream would notice
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    fam = fk.build_lp_family(spec)
    sym = fk.SeparableSymbol(spec, identity_bands(spec, fam), fam)
    calls = count_steps(monkeypatch)
    fft_calls.clear()
    with pytest.raises(fk.DimensionError, match="grids differ"):
        fk.certified_l2_bound(sym, frame64)
    # refused before any transform ran or any step was built
    assert fft_calls == []
    assert calls == []


def test_certified_bound_dense_branch(spec64, frame64, fam64, monkeypatch):
    # the identity commutes with Phi, so B*B = I and the iteration stops
    # after its second step
    sym = fk.SeparableSymbol(spec64, identity_bands(spec64, fam64), fam64)
    calls = count_steps(monkeypatch)
    dense = fk.certified_l2_bound(sym.densify(), frame64)
    assert calls[0]["steps"] == 2
    assert dense == pytest.approx(np.sqrt(2.0), rel=0.0, abs=1e-10)
    assert dense == pytest.approx(fk.certified_l2_bound(sym, frame64), rel=0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the operator seam: multipliers, the generic adjoint, one dense step
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def half_wave(spec64):
    # U = e^{-i|D|/2} is unitary and commutes with the frame weight Phi(D)
    return fk.SpectralMultiplier(spec64, np.exp(-0.5j * fk.lattice(spec64).mags))


def test_certified_bound_of_half_wave_is_sqrt2(frame64, half_wave):
    assert fk.certified_l2_bound(half_wave, frame64) == pytest.approx(np.sqrt(2.0), rel=0.0, abs=1e-15)


def test_apply_symbol_takes_a_multiplier(spec64, half_wave, rng):
    f = random_field(spec64, rng)
    out = fk.apply_symbol(half_wave, f)
    assert out.samples.tobytes() == fk.apply_multiplier(f, half_wave).samples.tobytes()


def test_probe_takes_a_multiplier(spec64, frame64, fam64, half_wave):
    family = fk.build_test_family(spec64, frame64, bands=(1, 2, 3), fam=fam64)
    report = fk.operator_norm_probe(half_wave, 0.0, 0.0, 2.0, frame64, family)
    for row in report.rows:
        assert abs(row["ratio"] - 1.0) <= 1e-14
    assert report.spectral_bound == pytest.approx(np.sqrt(2.0), rel=0.0, abs=1e-15)


def test_multiplier_adjointness(spec64, half_wave, rng):
    f = random_field(spec64, rng)
    g = random_field(spec64, rng)
    lhs = fk.l2_inner(fk.apply_symbol(half_wave, f), g)
    rhs = fk.l2_inner(f, fk.operators._adjoint(half_wave, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_dense_certificate_step_runs_two_transforms(spec64, frame64, request):
    # the dense lattice walk runs no transform, so a step costs the
    # two grid transforms around Phi^2 alone
    step = fk.operators._conjugated_step(fk.preset_identity(spec64), frame64)
    v = fk.GridField(spec64, np.random.default_rng(0).standard_normal(spec64.shape))
    v_hat = fk.forward_transform(v)
    fft_calls = request.getfixturevalue("fft_calls")
    w_hat = step(v_hat)
    assert len(fft_calls) == 2
    # the identity commutes with Phi, so the step returns v
    assert np.abs(fk.inverse_transform(w_hat, spec64).samples - v.samples).max() <= 1e-10


# ---------------------------------------------------------------------------
# the composition seam: _Composed(a, m) is a(x,D) m(D) for every kind of a
# ---------------------------------------------------------------------------


def _relmax(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


KINDS = ["separable", "dense", "multiplier"]
Composed = fk.operators._Composed


@pytest.mark.parametrize("kind", KINDS)
def test_composed_apply_is_the_apply_after_the_multiplier(seam, kind, rng):
    a, f = seam.kinds[kind], random_field(seam.spec, rng)
    got = fk.apply_symbol(Composed(a, seam.U), f).samples
    want = fk.apply_symbol(a, fk.apply_multiplier(f, seam.U)).samples
    assert _relmax(got, want) <= 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_composed_adjointness(seam, kind, rng):
    T = Composed(Composed(seam.kinds[kind], seam.U), seam.V)
    f, g = random_field(seam.spec, rng), random_field(seam.spec, rng)
    lhs = fk.l2_inner(fk.apply_symbol(T, f), g)
    rhs = fk.l2_inner(f, fk.operators._adjoint(T, g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("kind", KINDS)
def test_nested_composition_is_the_product_multiplier(seam, kind, rng):
    a, f = seam.kinds[kind], random_field(seam.spec, rng)
    nested = Composed(Composed(a, seam.U), seam.V)
    product = Composed(a, fk.SpectralMultiplier(seam.spec, seam.U.values * seam.V.values))
    for op in (fk.apply_symbol, fk.operators._adjoint):
        assert _relmax(op(nested, f).samples, op(product, f).samples) <= 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_the_all_ones_multiplier_changes_no_bit(seam, kind, rng):
    a, f = seam.kinds[kind], random_field(seam.spec, rng)
    ones = Composed(a, seam.ones)
    for op in (fk.apply_symbol, fk.operators._adjoint):
        assert op(ones, f).samples.tobytes() == op(a, f).samples.tobytes()
    v_hat = fk.forward_transform(f)
    step, bare = (fk.operators._conjugated_step(b, seam.frame) for b in (ones, a))
    assert step(v_hat).tobytes() == bare(v_hat).tobytes()
    if kind != "dense":  # a dense power iteration at N = 64 takes tens of seconds
        assert (fk.certified_l2_bound(ones, seam.frame).hex()
                == fk.certified_l2_bound(a, seam.frame).hex())


@pytest.mark.parametrize("kind", KINDS)
def test_a_composed_step_runs_the_bare_steps_transforms(seam, kind, request):
    a = seam.kinds[kind]
    v_hat = fk.forward_transform(random_field(seam.spec, np.random.default_rng(2)))
    steps = [fk.operators._conjugated_step(b, seam.frame) for b in (a, Composed(a, seam.U))]
    fft_calls = request.getfixturevalue("fft_calls")
    counts = []
    for step in steps:
        fft_calls.clear()
        step(v_hat)
        counts.append(len(fft_calls))
    want = {"separable": sum(2 * len(ks) + 2 for _, ks in seam.chirp._grids),
            "dense": 2, "multiplier": 0}[kind]
    assert counts == [want, want]


# ---------------------------------------------------------------------------
# operator-norm probing
# ---------------------------------------------------------------------------


def test_probe_identity_ratios(spec64, frame64, fam64):
    bands = {
        k: fk.GridField(spec64, np.ones(spec64.shape, complex))
        for k in range(fam64.J_max + 1)
    }
    sym = fk.SeparableSymbol(spec64, bands, fam64)
    family = fk.build_test_family(
        spec64, frame64, bands=(1, 2, 3), kinds=("plane", "random"), fam=fam64
    )
    report = fk.operator_norm_probe(sym, 0.3, 0.3, 4.0, frame64, family)
    for row in report.rows:
        assert row["ratio"] == pytest.approx(1.0, rel=1e-10)
    assert report.sup_ratio == pytest.approx(1.0, rel=1e-10)
    assert abs(report.trend_slope()) <= 1e-9


def test_probe_certified_bound_dominates(spec64, frame64, fam64):
    chirp = fk.preset_rough_chirp(spec64, 1.5, 0.5, seed=9, chi=fam64)
    family = fk.build_test_family(
        spec64, frame64, bands=(1, 2, 3), kinds=("plane", "packet", "random"), fam=fam64
    )
    report = fk.operator_norm_probe(chirp, 0.0, 0.0, 2.0, frame64, family)
    assert report.spectral_bound is not None
    assert report.sup_ratio <= report.spectral_bound * (1 + 1e-6)


def test_probe_band_profile_and_rows(spec64, frame64, fam64):
    chirp = fk.preset_rough_chirp(spec64, 1.0, 0.5, seed=5, chi=fam64)
    family = fk.build_test_family(
        spec64, frame64, bands=(2, 3), kinds=("plane", "random"), fam=fam64
    )
    report = fk.operator_norm_probe(chirp, 0.25, 0.25, 4.0, frame64, family)
    prof = report.band_profile()
    assert set(prof) == {2, 3}
    assert len(report.rows) == 4
    for row in report.rows:
        assert row["ratio"] == row["out_norm"] / row["in_norm"]
    assert report.spectral_bound is None  # p != 2


# ---------------------------------------------------------------------------
# test-family construction and embedding
# ---------------------------------------------------------------------------


def test_family_members_unit_norm(spec64, frame64, fam64):
    family = fk.build_test_family(spec64, frame64, bands=(1, 2, 3), fam=fam64)
    assert len(family) == 12
    for member in family:
        assert fk.lp_norm(member.field, 2.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", [2, 4])
def test_focusing_member_matches_x_domain_sum(spec64, frame64, k):
    # definition: unit-L^2 packets over every fourth direction, summed in x
    acc = sum(
        fk.packet_member(spec64, k, omega).field.samples
        for omega in frame64.directions.omegas[::4]
    )
    ref = acc / fk.lp_norm(fk.GridField(spec64, acc), 2.0)
    got = fk.focusing_member(spec64, k, frame64).field
    assert np.abs(got.samples - ref).max() <= 1e-12 * np.abs(ref).max()
    assert fk.lp_norm(got, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_embed_preserves_norms_exactly(rng):
    coarse = fk.GridSpec(N=64, L=2.0 * np.pi)
    fine = fk.GridSpec(N=128, L=2.0 * np.pi)
    f = band_limited(coarse, rng, 4.0, 20.0)
    g = fk.embed(f, fine)
    assert fk.lp_norm(g, 2.0) == pytest.approx(fk.lp_norm(f, 2.0), rel=1e-12)
    # spectra agree frequency-by-frequency
    src = fk.forward_transform(f)
    dst = fk.forward_transform(g)
    assert np.abs(dst[:32, :32] - src[:32, :32]).max() <= 1e-10 * np.abs(src).max()


globals().update(refusal_tests(__name__))
