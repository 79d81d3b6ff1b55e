import inspect
import json
import struct
import sys
import warnings
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

import fiokit as fk
from fiokit.grid import bessel_values


@pytest.fixture(scope="session")
def spec64():
    return fk.GridSpec(N=64)


@pytest.fixture(scope="session")
def fam64(spec64):
    return fk.build_lp_family(spec64)


@pytest.fixture(scope="session")
def frame64(spec64):
    return fk.ParabolicFrame(spec64)


@pytest.fixture(scope="session")
def spec_fine():
    # finer frequency lattice: unit period multiple, rich dyadic range
    return fk.GridSpec(N=256, L=2.0 * np.pi)


@pytest.fixture(scope="session")
def fam_fine(spec_fine):
    return fk.build_lp_family(spec_fine)


@pytest.fixture(scope="module")
def spec_op():
    # small grid: the dense path is quadratic in lattice size
    return fk.GridSpec(N=32, L=8.0 * np.pi)


@pytest.fixture(scope="module")
def fam_op(spec_op):
    return fk.build_lp_family(spec_op)


@pytest.fixture(scope="module")
def chirp_op(spec_op, fam_op):
    return fk.preset_rough_chirp(spec_op, 1.5, 0.5, seed=3, chi=fam_op)


@pytest.fixture(scope="module")
def seam():
    spec = fk.GridSpec(N=64, L=2.0 * np.pi)
    fam = fk.build_lp_family(spec)
    chirp = fk.preset_rough_chirp(spec, 1.5, 0.5, seed=0, chi=fam)
    lat = fk.lattice(spec)
    bracket = np.sqrt(1.0 + lat.mags**2)
    return SimpleNamespace(
        spec=spec, frame=fk.ParabolicFrame(spec), chirp=chirp,
        kinds={"separable": chirp, "dense": chirp.densify(),
               "multiplier": fk.SpectralMultiplier(spec, np.exp(1j * lat.mesh[0]) / bracket)},
        # damped, complex and not unitary, so a lost conjugation or |U|^2 shows
        U=fk.SpectralMultiplier(spec, bracket**-0.5 * np.exp(-0.5j * lat.mags)),
        V=fk.SpectralMultiplier(spec, 1.0 / bracket + 0.25j * np.sin(lat.mesh[1])),
        ones=fk.SpectralMultiplier(spec, np.ones(spec.shape)))


@pytest.fixture(scope="module")
def spec_mid():
    # spacing 1/4, axis range 8: resolves bands 1..4 with >= 5 axis samples
    return fk.GridSpec(N=64, L=8.0 * np.pi)


@pytest.fixture(scope="module")
def fam_mid(spec_mid):
    return fk.build_lp_family(spec_mid)


@pytest.fixture(scope="module")
def spec_cm():
    return fk.GridSpec(N=32, L=8.0 * np.pi)


@pytest.fixture(scope="module")
def frame64_2pi():
    return fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(spec, rng, real=False):
    samples = rng.standard_normal(spec.shape)
    if not real:
        samples = samples + 1j * rng.standard_normal(spec.shape)
    return fk.GridField(spec, samples)


def plane_wave(spec, xi0):
    x1, x2 = spec.x_mesh()
    return fk.GridField(spec, np.exp(1j * (xi0[0] * x1 + xi0[1] * x2)))


def band_limited(spec, rng, lo, hi):
    noise = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    mags = fk.lattice(spec).mags
    mask = np.where((mags > lo) & (mags < hi), 1.0, 0.0)
    return fk.inverse_transform(mask * noise, spec)


def high_pass(spec, rng):
    f = random_field(spec, rng)
    mask = np.where(fk.lattice(spec).mags >= 0.5, 1.0, 0.0)
    return fk.inverse_transform(mask * fk.forward_transform(f), spec)


def hpfio_by_definition(f, s, p, frame):
    """The directional norm as defined: one full-grid inverse transform
    and one L^p norm per direction."""
    spec = f.spec
    spectrum = fk.forward_transform(f)
    q = fk.falling(fk.lattice(spec).mags, 2.0, 4.0)
    low_part = fk.lp_norm(fk.inverse_transform(q * spectrum, spec), p)
    bess = bessel_values(spec, s).ravel()
    flat = spectrum.ravel()
    total = 0.0
    for l in range(frame.n_directions):
        idx, vals = frame.sparse(l)
        g = np.zeros(flat.shape, dtype=complex)
        g[idx] = vals * bess[idx] * flat[idx]
        gl = fk.inverse_transform(g.reshape(spec.shape), spec)
        total += frame.directions.weights[l] * fk.lp_norm(gl, p) ** p
    return low_part + total ** (1.0 / p)


def write_fiof_n3(path):
    """A well-formed FIOF file of a constant field on an n = 3, N = 16 grid,
    which GridSpec refuses, so it is written from the header format directly."""
    header = struct.pack("<III d", 1, 3, 16, 2.0 * np.pi)
    path.write_bytes(b"FIOF" + header + np.ones(16**3, dtype="<c16").tobytes())
    return path


# ---------------------------------------------------------------------------
# numpy.fft calls
# ---------------------------------------------------------------------------


Transform = namedtuple("Transform", "name shape module")
_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
               "rfftn", "irfftn", "hfft", "ihfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Every numpy.fft transform from here on, in order, as Transform(name, input shape,
    calling module).  Each runs on a copy of its input into the out= buffer it must be
    given, which numpy.fft's out= contract allows: a caller that leaves out= off, or reads
    an input the transform may have overwritten, fails."""
    calls = []

    def recorded(name, transform):
        def run(x, *args, out, **kwargs):
            calls.append(Transform(name, np.shape(x), sys._getframe(1).f_globals["__name__"]))
            return transform(np.array(x, copy=True), *args, out=out, **kwargs)
        return run

    for name in _TRANSFORMS:
        monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
    return calls


# ---------------------------------------------------------------------------
# The library's refusals: one table, one helper
# ---------------------------------------------------------------------------


# one row: the parameters of call that have no default name the fixtures it is called with;
# it must raise exactly error, with a message that re.search finds match in, and may run a
# numpy.fft transform only when transforms is true
Refusal = namedtuple("Refusal", "call error match transforms", defaults=(False,))


def refuses(rows, request):
    """Each row's call, bound to its fixtures, raises its error and message, issues no
    warning of any category and, unless the row allows it, runs no numpy.fft transform."""
    fft = request.getfixturevalue("fft_calls")
    for call, error, match, transforms in rows:
        fixtures = {name: request.getfixturevalue(name)
                    for name, param in inspect.signature(call).parameters.items()
                    if param.default is param.empty}
        fft.clear()  # a fixture built on first use may have run transforms
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=match) as info:
                call(**fixtures)
        assert info.type is error
        assert [str(w.message) for w in caught] == []
        assert transforms or fft == [], fft


def refusal_tests(module):
    """module's tests from REFUSALS, for its namespace: one test per item name, with the
    rows keyed name, or parametrized by the ids of the rows keyed name[id].  A key holds
    one Refusal, or a list of them that one item runs in order.  Every fixture a row names
    is defined in this file; a key's module only says where its test is collected, which
    keeps the item id the test had as a function of that module."""
    module = module.rpartition(".")[2]
    items = {key.partition("::")[2]: [rows] if isinstance(rows, Refusal) else rows
             for key, rows in REFUSALS.items() if key.partition("::")[0] == module}
    tests = {}
    for name in dict.fromkeys(key.partition("[")[0] for key in items):
        if name in items:
            def test(request, rows=items[name]):
                refuses(rows, request)
        else:
            keys = [key for key in items if key.partition("[")[0] == name]

            @pytest.mark.parametrize("rows", [items[key] for key in keys],
                                     ids=[key[len(name) + 1:-1] for key in keys])
            def test(rows, request):
                refuses(rows, request)
        tests[name] = test
    return tests


def _never(*args, **kwargs):
    raise AssertionError("work ran before the refusal")


def _bytes(path, data):
    path.write_bytes(data)
    return path


def _fiof(path, n, N, L, payload=b"", version=1):
    """A FIOF file with the header (version, n, N, L) and the given payload."""
    return _bytes(path, b"FIOF" + struct.pack("<III d", version, n, N, L) + payload)


def descriptor(tmp, doc):
    path = tmp / "sym.json"
    path.write_text(json.dumps(doc))
    return path


def _ones(spec):
    return fk.GridField(spec, np.ones(spec.shape))


def _zeros(spec):
    return fk.GridField(spec, np.zeros(spec.shape))


def _spike(bad):
    """A spectrum of ones on a 16 x 16 grid with bad at [1, 2]."""
    spectrum = np.ones((16, 16), dtype=complex)
    spectrum[1, 2] = bad
    return spectrum


def _nan(shape):
    bad = np.ones(shape)
    bad[0, 0] = np.nan
    return bad


@pytest.fixture(scope="session")
def another_grid():
    """A chirp on N = 64, L = 8 pi with its frame, and a family and frame on N = 64,
    L = 4 pi: the family has bands 0..6, so the chirp's bands 0..5 all index it."""
    spec, other = fk.GridSpec(N=64, L=8.0 * np.pi), fk.GridSpec(N=64, L=4.0 * np.pi)
    return SimpleNamespace(a=fk.preset_rough_chirp(spec, 1.5, 0.5, seed=7),
                           other=fk.LittlewoodPaleyFamily(other),
                           frame=fk.ParabolicFrame(spec), other_frame=fk.ParabolicFrame(other))


_SPEC16 = fk.GridSpec(N=16, L=1.0)
_SPEC32 = fk.GridSpec(N=32)
_BIG = fk.GridSpec(N=256, L=2.0 * np.pi)
_L4PI = fk.GridSpec(N=64, L=4.0 * np.pi)
_L8PI = fk.GridSpec(N=64, L=8.0 * np.pi)
_GRID16 = {"N": 16, "L": 1.0}


def _band_files(tmp, spec, doc):
    """The descriptor doc, beside one.fiof and two.fiof: ones and twos on spec."""
    fk.write_fiof(tmp / "one.fiof", _ones(spec))
    fk.write_fiof(tmp / "two.fiof", fk.GridField(spec, 2.0 * np.ones(spec.shape)))
    return descriptor(tmp, doc)


def _overflowing_step(entry, magnitude):
    spec = fk.GridSpec(N=32, L=2 * np.pi)
    fam = fk.LittlewoodPaleyFamily(spec)
    big = fk.GridField(spec, np.full(spec.shape, magnitude, dtype=complex))
    sym = fk.SeparableSymbol(spec, {k: big for k in range(fam.J_max + 1)}, fam)
    if entry == "certified_l2_bound":
        return fk.certified_l2_bound(sym, fk.ParabolicFrame(spec))
    return fk.power_iteration(lambda v: fk.apply_symbol(sym, v), lambda v: fk.operators._adjoint(sym, v),
                              spec)


def _on_another_grid(seam, kind, nested):
    """a U, or (a U) V when nested, with U on the same N and another L, so that nothing
    downstream would notice the shapes; a dense a fails if a slice is evaluated."""
    a = fk.DenseSymbol(seam.spec, _never) if kind == "dense" else seam.kinds[kind]
    T = fk.operators._Composed(a, fk.SpectralMultiplier(_L4PI, seam.U.values))
    return fk.operators._Composed(T, seam.V) if nested else T


def _zero_operator_slope(spec, fam, p):
    frame = fk.ParabolicFrame(spec)
    family = fk.build_test_family(spec, frame, bands=(1, 2), fam=fam)
    zero = fk.SpectralMultiplier(spec, np.zeros(spec.shape))
    report = fk.operator_norm_probe(zero, 0.0, 0.0, p, frame, family)
    assert report.band_profile() == {1: 0.0, 2: 0.0}
    return report.trend_slope()


_ON_ANOTHER_GRID_RUNS = (lambda T, seam: fk.apply_symbol(T, _ones(seam.spec)),
                         lambda T, seam: fk.operators._adjoint(T, _ones(seam.spec)),
                         lambda T, seam: fk.certified_l2_bound(T, seam.frame))

REFUSALS = {
    # -- test_grid ---------------------------------------------------------------
    **{f"test_grid::test_grid_spec_rejects_wrong_types[kwargs{i}]": Refusal(
        lambda kwargs=kwargs: fk.GridSpec(**kwargs), fk.ParameterError, text)
       for i, (kwargs, text) in enumerate([
           ({"N": 64.0}, "N=64.0 must be an integer >= 1"), ({"n": 2.0}, "n=2.0 must be an integer"),
           ({"n": True}, "n=True must be an integer"), ({"L": "1"}, "period L='1' must be a real number"),
           ({"L": 1j}, r"period L=1j must be a real number")])},
    "test_grid::test_grid_spec_validation": [
        Refusal(lambda: fk.GridSpec(N=48), fk.ParameterError, "N=48 must be a power of two >= 16"),
        Refusal(lambda: fk.GridSpec(N=8), fk.ParameterError, "N=8 must be a power of two >= 16"),
        Refusal(lambda: fk.GridSpec(L=-1.0), fk.ParameterError, "period L=-1.0 must be > 0"),
        Refusal(lambda: fk.GridSpec(n=0), fk.ParameterError, "n=0 must be an integer >= 1")],
    # L^-n, L^n, dx^n or the squared Nyquist corner |xi|^2 overflows or vanishes
    **{f"test_grid::test_grid_spec_refuses_a_period_whose_powers_are_not_finite_and_nonzero[{key}]":
       Refusal(lambda L=L: fk.GridSpec(N=16, L=L), fk.ParameterError, "finite and > 0")
       for key, L in [("1e-200", 1e-200), ("1e+200", 1e200), ("1e-160", 1e-160), ("1e+160", 1e160),
                      ("5e-324", 5e-324), ("inf", np.inf), ("nan", np.nan), ("0.0", 0.0),
                      ("float64-1e+200", np.float64(1e200))]},
    **{f"test_grid::test_grid_spec_is_planar[{n}]": Refusal(
        lambda n=n: fk.GridSpec(n=n), fk.ParameterError, f"dimension n={n} must be 2") for n in (1, 3)},
    "test_grid::test_non_finite_rejected": [
        Refusal(lambda spec64: fk.GridField(spec64, _nan(spec64.shape)), fk.InvalidInputError,
                "field contains non-finite samples"),
        Refusal(lambda spec64: fk.inverse_transform(_nan(spec64.shape), spec64), fk.InvalidInputError,
                "field contains non-finite samples", transforms=True)],
    "test_grid::test_spec_mismatch_raises": Refusal(
        lambda spec64: fk.apply_multiplier(
            _ones(spec64), fk.SpectralMultiplier(_SPEC32, np.ones((32, 32)))),
        fk.DimensionError, "grid specs differ"),
    "test_grid::test_fiof_rejects_garbage": Refusal(
        lambda tmp_path: fk.read_fiof(_bytes(tmp_path / "bad.fiof", b"NOPE" + bytes(32))),
        fk.InvalidInputError, "bad.fiof: not a FIOF file"),
    "test_grid::test_fiof_rejects_short_header": Refusal(
        lambda tmp_path: fk.read_fiof(_bytes(tmp_path / "short.fiof", b"FIOF\x01\x00\x00\x00")),
        fk.InvalidInputError, "bad header"),
    **{f"test_grid::test_fiof_rejects_invalid_grid_header[{n}-{N}-{L}]": Refusal(
        lambda tmp_path, n=n, N=N, L=L: fk.read_fiof(_fiof(tmp_path / "bad_grid.fiof", n, N, L)),
        fk.InvalidInputError, "bad header") for n, N, L in [(2, 3, 1.0), (2, 64, float("nan"))]},
    # N**n with n = 2**32 - 1 would be an integer of about 2 GB
    "test_grid::test_fiof_rejects_huge_dimension_before_sizing": Refusal(
        lambda tmp_path: fk.read_fiof(_fiof(tmp_path / "huge_n.fiof", 2**32 - 1, 16, 1.0)),
        fk.InvalidInputError, "bad header"),
    "test_grid::test_fiof_rejects_three_dimensional_field": Refusal(
        lambda tmp_path: fk.read_fiof(write_fiof_n3(tmp_path / "n3.fiof")),
        fk.InvalidInputError, "bad header: dimension n=3"),
    "test_grid::test_fiof_rejects_payload_cut_mid_sample": Refusal(
        lambda tmp_path: fk.read_fiof(_fiof(tmp_path / "payload.fiof", 2, 64, 1.0, bytes(16 * 64**2 - 5))),
        fk.InvalidInputError, "truncated payload"),
    "test_grid::test_fiof_rejects_extra_samples": Refusal(
        lambda tmp_path: fk.read_fiof(_fiof(tmp_path / "payload.fiof", 2, 64, 1.0, bytes(16 * 64**2 + 32))),
        fk.InvalidInputError, "bytes after the"),
    # 2**40 samples would be 16 TiB; the short file is refused before any read
    "test_grid::test_fiof_huge_grid_header_reads_nothing_large": Refusal(
        lambda tmp_path: fk.read_fiof(_fiof(tmp_path / "payload.fiof", 2, 2**20, 1.0, bytes(32))),
        fk.InvalidInputError, "truncated payload"),
    **{f"test_grid::test_grid_input_checks[{key}]": Refusal(call, error, match)
       for key, call, error, match in [
        ("field-shape", lambda: fk.GridField(_SPEC16, np.zeros((8, 8))), fk.InvalidInputError,
         "sample shape"),
        ("multiplier-shape", lambda: fk.SpectralMultiplier(_SPEC16, np.ones((8, 8))), fk.InvalidInputError,
         "multiplier shape"),
        ("multiplier-non-finite", lambda: fk.SpectralMultiplier(_SPEC16, np.full(_SPEC16.shape, np.inf)),
         fk.InvalidInputError, "non-finite"),
        ("inverse-shape", lambda: fk.inverse_transform(np.zeros((8, 8)), _SPEC16), fk.InvalidInputError,
         "spectrum shape"),
        ("bessel-non-finite-s", lambda: fk.bessel_potential(_ones(_SPEC16), np.nan), fk.ParameterError,
         "must be finite"),
        ("fiof-version", lambda tmp_path: fk.read_fiof(
            _fiof(tmp_path / "v2.fiof", 2, 16, 1.0, bytes(16 * 16**2), version=2)),
         fk.InvalidInputError, "unsupported FIOF version 2")]},
    # numpy.fft warns on inf and nan input; grid's transforms stay quiet and the refusal
    # that follows is the only report
    **{f"test_grid::test_non_finite_spectrum_is_refused_without_a_warning[{key}]": Refusal(
        lambda bad=bad: fk.inverse_transform(_spike(bad), fk.GridSpec(N=16, L=2 * np.pi)),
        fk.InvalidInputError, "field contains non-finite samples", transforms=True)
       for key, bad in [("inf", np.inf), ("-inf", -np.inf), ("inf-inf", complex(np.inf, np.inf)),
                        ("nan", np.nan)]},
    # -- test_norms --------------------------------------------------------------
    "test_norms::test_zygmund_requires_positive_r": Refusal(
        lambda spec64: fk.zygmund_norm(_ones(spec64), 0.0), fk.ParameterError,
        "regularity r=0.0 must be positive and finite"),
    **{f"test_norms::test_zygmund_refuses_a_non_finite_r[{r}]": Refusal(
        lambda r=r: fk.zygmund_norm(_ones(fk.GridSpec(N=32, L=8 * np.pi)), r), fk.ParameterError,
        "positive and finite") for r in (np.inf, np.nan, -np.inf)},
    "test_norms::test_hpfio_parameter_validation": [
        Refusal(lambda frame64: fk.hpfio_norm(_ones(frame64.spec), 0.0, 1.0, frame64), fk.ParameterError,
                r"p=1.0 must lie in \(1, inf\)"),
        Refusal(lambda frame64: fk.hpfio_norm(_zeros(_SPEC32), 0.0, 2.0, frame64), fk.DimensionError,
                "grid specs differ")],
    "test_norms::test_budget_validation": [
        Refusal(lambda: fk.budget(2.0, 0.6, 4.0, 2), fk.ParameterError,
                r"delta=0.6 must lie in \[0, 1/2\]"),
        Refusal(lambda: fk.budget(-1.0, 0.0, 4.0, 2), fk.ParameterError, "r=-1.0 must be positive"),
        Refusal(lambda: fk.budget(2.0, 0.0, 1.0, 2), fk.ParameterError, r"p=1.0 must lie in \(1, inf\)")],
    "test_norms::test_norms_input_checks[sobolev-s-p]": Refusal(
        lambda: fk.sobolev_s(0.5, 2), fk.ParameterError, "out of range"),
    "test_norms::test_norms_input_checks[budget-eps-slack]": Refusal(
        lambda: fk.budget(2.0, 0.5, 4.0, 2, eps_slack=0.0), fk.ParameterError, "eps_slack"),
    # r = inf gave the interval (-inf, inf) and a nan admissible s, n = 0 a negative s(p)
    **{f"test_norms::test_budget_refuses_a_regularity_or_dimension_outside_the_theory[{key}]": Refusal(
        call, fk.ParameterError, text) for key, call, text in [
        ("r-inf", lambda: fk.budget(np.inf, 0.5, 4.0, 2), "r=inf must be positive and finite"),
        ("n-zero", lambda: fk.budget(2.0, 0.5, 4.0, 0), "n=0 must be an integer >= 1"),
        ("n-fraction", lambda: fk.budget(2.0, 0.5, 4.0, 2.5), "n=2.5 must be an integer >= 1"),
        ("n-bool", lambda: fk.budget(2.0, 0.5, 4.0, True), "n=True must be an integer >= 1"),
        ("sobolev-n-zero", lambda: fk.sobolev_s(4.0, 0), "n=0 must be an integer >= 1"),
        ("sobolev-n-fraction", lambda: fk.sobolev_s(4.0, 2.5), "n=2.5 must be an integer >= 1")]},
    **{f"test_norms::test_hpfio_norm_refuses_a_non_finite_s[{s}-{key}]": Refusal(
        lambda frame64, s=s, p=p: fk.hpfio_norm(_ones(frame64.spec), s, p, frame64), fk.ParameterError,
        "smoothness s must be finite")
       for s in (np.nan, np.inf, -np.inf) for key, p in (("parseval", 2.0), ("directions", 4.0))},
    # xi_max = 45.3 at N=64, L=2 pi: <xi>^s f^ or its p-th power overflows to inf or nan
    **{f"test_norms::test_hpfio_norm_refuses_an_overflowing_s[{s}-{key}]": Refusal(
        lambda frame64_2pi, s=s, p=p: fk.hpfio_norm(
            random_field(frame64_2pi.spec, np.random.default_rng(0), real=True), s, p, frame64_2pi),
        fk.ParameterError, f"s={s}, p={p} overflows", transforms=True)
       for s in (180.0, 200.0) for key, p in (("parseval", 2.0), ("directions", 4.0))},
    **{f"test_norms::test_classical_norm_refuses_an_overflowing_s[{key}]": Refusal(
        lambda s=s, p=p: fk.classical_norm(
            random_field(fk.GridSpec(N=64, L=2.0 * np.pi), np.random.default_rng(0), real=True), s, p),
        fk.ParameterError, match, transforms=True) for key, s, p, match in [
        ("weights-overflow", 400.0, 2.0, "smoothness s=400.0: <D>"),
        ("power-overflows", 180.0, 4.0, "s=180.0, p=4.0 overflows")]},
    # -- test_operators ----------------------------------------------------------
    "test_operators::test_apply_dense_resolution_guard": Refusal(
        lambda: fk.apply_dense(fk.preset_identity(_BIG), _ones(_BIG)), fk.ResolutionError,
        "dense application restricted to N <= 128"),
    "test_operators::test_apply_dense_grid_mismatch": Refusal(
        lambda spec_op: fk.apply_dense(fk.preset_identity(spec_op), _ones(_L8PI)), fk.DimensionError,
        "symbol and field grids differ"),
    # an all-zero input has no coefficient to visit; the checks still run, before any
    # transform or symbol evaluation
    **{f"test_operators::test_dense_guards_fire_before_any_work[{name}]": [
        Refusal(lambda op=op: op(fk.DenseSymbol(_BIG, _never), _zeros(_BIG)), fk.ResolutionError,
                "dense application restricted"),
        Refusal(lambda spec_op, op=op: op(fk.DenseSymbol(spec_op, _never), _zeros(_L8PI)),
                fk.DimensionError, "grids differ")]
       for name, op in (("apply_dense", fk.apply_dense), ("apply_dense_adjoint", fk.apply_dense_adjoint))},
    **{f"test_operators::test_separable_grid_mismatch[{name}]": Refusal(
        lambda chirp_op, op=op: op(chirp_op, _ones(_L8PI)), fk.DimensionError, "grids differ")
       for name, op in (("apply_separable", fk.apply_separable),
                        ("apply_separable_adjoint", fk.apply_separable_adjoint))},
    "test_operators::test_verify_band_support_grid_mismatch": Refusal(
        lambda spec_fine, spec64: fk.verify_band_support(_ones(spec_fine), _ones(spec64), 4),
        fk.DimensionError, "band factors on different grids"),
    # a count of 0 or -1 would read as 0.0, the zero operator's norm, and 2.5 fail in range()
    **{f"test_operators::test_power_iteration_refuses_an_iteration_count_before_any_apply[{iters}]":
       Refusal(lambda spec64, iters=iters: fk.power_iteration(_never, _never, spec64, iters=iters),
        fk.ParameterError, f"iters={iters} must be an integer >= 1") for iters in (0, -1, 2.5, True)},
    # at 1e150 a step's norm overflows, and dividing by it once made every later iterate
    # zero and the certificate 0.0; at 1e300 the step itself overflows
    **{f"test_operators::test_overflowing_power_step_is_refused_without_a_warning[{entry}-{m:g}]": Refusal(
        lambda entry=entry, m=m: _overflowing_step(entry, m), fk.InvalidInputError, "non-finite",
        transforms=True)
       for entry in ("certified_l2_bound", "power_iteration") for m in (1e150, 1e300)},
    **{f"test_operators::test_a_multiplier_on_another_grid_is_refused_before_any_work"
       f"[{kind}-{'inner' if nested else 'outer'}]": [
           Refusal(lambda seam, kind=kind, nested=nested, run=run: run(
               _on_another_grid(seam, kind, nested), seam), fk.DimensionError, "grids differ")
           for run in _ON_ANOTHER_GRID_RUNS]
       for kind in ("separable", "dense", "multiplier") for nested in (False, True)},
    # the grid check comes before the first member's norm, at every p
    "test_operators::test_probe_refuses_a_symbol_on_another_grid_before_any_transform": [
        Refusal(lambda seam, p=p: fk.operator_norm_probe(
            fk.SeparableSymbol(_L4PI, {1: _ones(_L4PI)}, fk.LittlewoodPaleyFamily(_L4PI)), 0.0, 0.0, p,
            seam.frame, [fk.FamilyMember("ones", 2, _ones(seam.spec))]), fk.DimensionError, "grids differ")
        for p in (2.0, 4.0)],
    "test_operators::test_probe_rejects_degenerate_member": Refusal(
        lambda spec64, frame64, fam64: fk.operator_norm_probe(
            fk.preset_rough_chirp(spec64, 1.0, 0.5, chi=fam64), 0.0, 0.0, 2.0, frame64,
            [fk.FamilyMember("zero", 2, _zeros(spec64))]),
        fk.DegenerateInputError, "member zero has vanishing input norm", transforms=True),
    # the zero operator's ratios are 0 on every band, and log2(0) has no value
    **{f"test_operators::test_trend_slope_refuses_a_band_whose_largest_ratio_is_zero[{p}]": Refusal(
        lambda spec_op, fam_op, p=p: _zero_operator_slope(spec_op, fam_op, p), fk.DegenerateInputError,
        "band 1's largest ratio is 0", transforms=True) for p in (2.0, 4.0)},
    "test_operators::test_probe_parameter_validation": [
        Refusal(lambda spec64, frame64: fk.operator_norm_probe(
            fk.preset_identity(spec64), 0.0, 0.0, 1.0, frame64, []), fk.ParameterError, "p=1.0"),
        Refusal(lambda spec64, frame64: fk.operator_norm_probe(
            fk.preset_identity(spec64), 0.0, 0.0, 2.0, frame64, []), fk.ParameterError,
                "empty test family")],
    **{f"test_operators::test_every_seeded_entry_point_keeps_one_seed_rule[{entry}-{key}]": Refusal(
        call, fk.ParameterError, f"seed={seed!r} must be an integer >= 0")
       for key, seed in (("negative", -1), ("float", 2.5), ("bool", True))
       for entry, call in [
           ("certified_l2_bound", lambda spec64, frame64, seed=seed: fk.certified_l2_bound(
               fk.preset_identity(spec64), frame64, seed=seed)),
           ("power_iteration", lambda spec64, seed=seed: fk.power_iteration(
               _never, _never, spec64, seed=seed)),
           ("preset_rough_chirp", lambda spec64, fam64, seed=seed: fk.preset_rough_chirp(
               spec64, 1.0, 0.5, seed=seed, chi=fam64)),
           ("build_test_family", lambda spec64, frame64, seed=seed: fk.build_test_family(
               spec64, frame64, bands=(1,), seed=seed))]},
    # fam64's bands are 0..3
    "test_operators::test_family_band_out_of_range": Refusal(
        lambda spec64, frame64, fam64: fk.build_test_family(spec64, frame64, bands=(4,), fam=fam64),
        fk.ParameterError, "band 4 outside the grid's dyadic range"),
    "test_operators::test_embed_rejects_incompatible_grid": [
        Refusal(lambda spec=spec: fk.embed(_ones(fk.GridSpec(N=64, L=2.0 * np.pi)), spec),
                fk.ParameterError, "target grid must refine the source grid")
        for spec in (fk.GridSpec(N=128, L=4.0 * np.pi), fk.GridSpec(N=32, L=2.0 * np.pi))],
    # -- test_parabolic ----------------------------------------------------------
    "test_parabolic::test_c_sigma_validation": Refusal(
        lambda: fk.c_sigma(-1.0), fk.ParameterError, "sigma=-1.0 must be positive"),
    # nodes = 0 gave nan after a RuntimeWarning, -5 a numpy ValueError and 2.5 a TypeError
    **{f"test_parabolic::test_c_sigma_refuses_a_node_count_that_is_not_a_positive_integer[{nodes}]":
       Refusal(lambda nodes=nodes: fk.c_sigma(1.0, nodes=nodes), fk.ParameterError,
        f"nodes={nodes!r} must be an integer >= 1") for nodes in (0, -5, 2.5, True)},
    "test_parabolic::test_insufficient_directions_raises": Refusal(
        lambda: fk.ParabolicFrame(fk.GridSpec(N=64, L=2.0 * np.pi), M_omega=4), fk.ConstructionError,
        "coverage"),
    "test_parabolic::test_frame_rejects_other_dimensions": Refusal(
        lambda: fk.ParabolicFrame(fk.GridSpec(n=1, N=64)), fk.ParameterError, "dimension n=1 must be 2"),
    **{f"test_parabolic::test_parabolic_input_checks[{key}]": Refusal(call, error, match)
       for key, call, error, match in [
           ("directions-M<4", lambda: fk.DirectionSet(3), fk.ParameterError,
            "direction count M=3 must be an integer >= 4"),
           # a grid mismatch is a DimensionError here as in hpfio_norm and the symbols
           ("analyze-grid", lambda frame64: fk.frame_analyze(_zeros(_SPEC32), frame64), fk.DimensionError,
            "grid specs differ"),
           ("synthesize-count", lambda frame64: fk.frame_synthesize([], frame64), fk.ParameterError,
            "collection size"),
           ("synthesize-grid", lambda frame64: fk.frame_synthesize(
               [_zeros(_SPEC32)] * frame64.n_directions, frame64), fk.DimensionError, "grid specs differ"),
           ("anisotropic-alpha>3", lambda frame64: fk.anisotropic_bound_check(frame64, alpha_max=4),
            fk.ParameterError, "alpha_max=4 must lie in 0..3"),
           ("directions-float", lambda: fk.DirectionSet(4.5), fk.ParameterError,
            "M=4.5 must be an integer"),
           ("directions-bool", lambda: fk.DirectionSet(True), fk.ParameterError,
            "M=True must be an integer"),
           ("frame-bool", lambda: fk.ParabolicFrame(_SPEC32, True), fk.ParameterError,
            "M=True must be an integer")]},
    "test_parabolic::test_anisotropic_bound_check_refuses_a_negative_alpha_max": Refusal(
        lambda frame64: fk.anisotropic_bound_check(frame64, alpha_max=-1), fk.ParameterError,
        "alpha_max=-1 must be an integer >= 0"),
    # 2.5 raised a TypeError in range()
    "test_parabolic::test_anisotropic_bound_check_refuses_a_fractional_alpha_max": Refusal(
        lambda frame64: fk.anisotropic_bound_check(frame64, alpha_max=2.5), fk.ParameterError,
        "alpha_max=2.5 must be an integer >= 0"),
    "test_parabolic::test_zero_direction_count_is_refused_not_defaulted": Refusal(
        lambda: fk.ParabolicFrame(fk.GridSpec(N=32, L=2.0 * np.pi), M_omega=0), fk.ParameterError,
        "M=0 must be an integer >= 4"),
    # N = 16 has 256 lattice points; the default count at L = 1e-3 is 2 136
    **{f"test_parabolic::test_a_direction_count_above_the_lattice_is_refused[{L}-{M}]": Refusal(
        lambda L=L, M=M: fk.ParabolicFrame(fk.GridSpec(N=16, L=L), M_omega=M), fk.ParameterError,
        r"exceeds the grid's N\^n = 256") for L, M in [(1e-100, None), (1e-3, None), (2.0 * np.pi, 257)]},
    # -- test_dyadic -------------------------------------------------------------
    "test_dyadic::test_eps_out_of_range": [
        Refusal(lambda spec64, eps=eps: fk.build_lp_family(spec64, eps), fk.ParameterError,
                rf"eps={eps} must lie in \(0, 1/4\)") for eps in (0.3, 0.0)],
    "test_dyadic::test_lp_project_band_range": [
        Refusal(lambda spec64, fam64, j=j: fk.lp_project(_ones(spec64), j, fam64), fk.ParameterError, text)
        for j, text in ((4, "band index j=4 outside 0..3"),
                        (-1, "band index j=-1 must be an integer >= 0"))],
    "test_dyadic::test_tilde_multiplier_rejects_band_outside_range": [
        Refusal(lambda fam64, k=k: fam64.tilde_multiplier(k), fk.ParameterError, text)
        for k, text in ((-1, "band index k=-1 must be an integer >= 0"),
                        (4, "band index k=4 outside 0..3"))],
    # lp_project(f, 1.5) and multiplier(1.5) raised a TypeError as a list index, and
    # tilde_multiplier(2.5) and (True) returned a cutoff
    **{f"test_dyadic::test_band_indices_are_integers[{key}]": Refusal(call, fk.ParameterError, text)
       for key, call, text in [
           ("lp_project", lambda spec64, fam64: fk.lp_project(_ones(spec64), 1.5, fam64),
            "band index j=1.5 must be an integer >= 0"),
           ("multiplier", lambda fam64: fam64.multiplier(1.5), "band index j=1.5 must be an integer >= 0"),
           ("tilde-fraction", lambda fam64: fam64.tilde_multiplier(2.5),
            "band index k=2.5 must be an integer >= 0"),
           ("tilde-bool", lambda fam64: fam64.tilde_multiplier(True),
            "band index k=True must be an integer >= 0")]},
    # -- test_families -----------------------------------------------------------
    "test_families::test_build_test_family_rejects_unknown_kinds": Refusal(
        lambda spec64, frame64: fk.build_test_family(
            spec64, frame64, bands=(1, 2), kinds=("plane", "pakcet")),
        fk.ParameterError, r"unknown member kinds \['pakcet'\]"),
    "test_families::test_build_test_family_refuses_a_negative_seed": Refusal(
        lambda spec64, frame64: fk.build_test_family(spec64, frame64, bands=(1,), seed=-1),
        fk.ParameterError, "seed=-1 must be an integer >= 0"),
    # 2.5 raised a TypeError as a list index, and True built members named plane_kTrue; band 1's
    # members are not built before the later band is refused
    **{f"test_families::test_build_test_family_refuses_a_band_that_is_not_an_integer[{key}]": Refusal(
        lambda spec64, frame64, bands=bands: fk.build_test_family(spec64, frame64, bands),
        fk.ParameterError, text) for key, bands, text in [
        ("fraction", [2.5], "band=2.5 must be an integer >= 0"),
        ("bool", [True], "band=True must be an integer >= 0"),
        ("after-a-band", [1, 2.5], "band=2.5 must be an integer >= 0"),
        ("after-a-band-negative", [1, -1], "band=-1 must be an integer >= 0")]},
    # 2.5 and True were named plane_k2.5 and packet_kTrue, -1 built a member, and a random
    # member raised a TypeError or IndexError on fam.values
    **{f"test_families::test_member_constructors_refuse_a_band_that_is_not_an_integer[{key}]": Refusal(
        call, fk.ParameterError, text) for key, call, text in [
        ("plane-fraction", lambda spec64: fk.plane_wave_member(spec64, 2.5), "band=2.5 must be an integer"),
        ("plane-negative", lambda spec64: fk.plane_wave_member(spec64, -1), "band=-1 must be an integer"),
        ("packet-bool", lambda spec64: fk.packet_member(spec64, True, (1.0, 0.0)),
         "band=True must be an integer"),
        ("random-fraction", lambda spec64, fam64, rng: fk.random_band_member(spec64, 2.5, fam64, rng),
         "band=2.5 must be an integer"),
        ("random-above-range", lambda spec64, fam64, rng: fk.random_band_member(
            spec64, fam64.J_max + 1, fam64, rng), "outside the grid's dyadic range"),
        ("focus-negative", lambda spec64, frame64: fk.focusing_member(spec64, -1, frame64),
         "band=-1 must be an integer")]},
    # -- test_symbols ------------------------------------------------------------
    # spacing 1: band 1 holds a single axis frequency
    "test_symbols::test_seminorms_resolution_error": Refusal(
        lambda: fk.estimate_seminorms(fk.preset_identity(fk.GridSpec(N=64, L=2.0 * np.pi)), 1),
        fk.ResolutionError, "band 1 has only 2 lattice frequencies per axis"),
    "test_symbols::test_smooth_split_rejects_non_finite_slice": Refusal(
        lambda spec_mid, fam_mid: fk.smooth_split(
            fk.DenseSymbol(spec_mid, lambda eta: np.full(spec_mid.shape, np.nan)), 0.75, fam_mid
        ).sharp.eval(np.array([1.0, 0.0])), fk.InvalidInputError, "non-finite", transforms=True),
    "test_symbols::test_smooth_split_gamma_below_delta": Refusal(
        lambda spec_mid, fam_mid: fk.smooth_split(
            fk.DenseSymbol(spec_mid, _never, delta=0.5), 0.25, fam_mid),
        fk.ParameterError, "gamma"),
    "test_symbols::test_mode_validation": Refusal(
        lambda spec_cm: fk.coifman_meyer_decompose(fk.preset_identity(spec_cm), -1), fk.ParameterError,
        "beta_max=-1 must be an integer >= 0"),
    # 1.5 raised a TypeError in range()
    "test_symbols::test_coifman_meyer_refuses_a_fractional_beta_max": Refusal(
        lambda spec_cm: fk.coifman_meyer_decompose(fk.DenseSymbol(spec_cm, _never), 1.5), fk.ParameterError,
        "beta_max=1.5 must be an integer >= 0"),
    **{f"test_symbols::test_entry_points_refuse_a_family_on_another_grid[{key}]": Refusal(
        lambda another_grid, call=call: call(*vars(another_grid).values()), fk.DimensionError,
        "grid specs differ")
       for key, call in [
           ("zygmund_norm", lambda a, other, frame, other_frame: fk.zygmund_norm(a.bands[1], 1.5, other)),
           ("build_test_family", lambda a, other, frame, other_frame: fk.build_test_family(
               a.spec, frame, [1], fam=other)),
           ("build_test_family-frame", lambda a, other, frame, other_frame: fk.build_test_family(
               a.spec, other_frame, [1])),
           ("smooth_split", lambda a, other, frame, other_frame: fk.smooth_split(a.densify(), 0.75, other)),
           ("estimate_seminorms", lambda a, other, frame, other_frame: fk.estimate_seminorms(
               a.densify(), 1, other)),
           ("paraproduct_hh", lambda a, other, frame, other_frame: fk.paraproduct_hh(
               a.bands[1], a.bands[2], other)),
           ("paraproduct_hl", lambda a, other, frame, other_frame: fk.paraproduct_hl(
               a.bands[1], a.bands[2], other)),
           ("paraproduct_lh", lambda a, other, frame, other_frame: fk.paraproduct_lh(
               a.bands[1], a.bands[2], other)),
           ("coifman_meyer_decompose", lambda a, other, frame, other_frame: fk.coifman_meyer_decompose(
               a.densify(), 1, bands=[1], fam=other)),
           ("to_separable", lambda a, other, frame, other_frame: fk.to_separable(a.densify(), other)),
           ("preset_rough_chirp", lambda a, other, frame, other_frame: fk.preset_rough_chirp(
               a.spec, 1.5, 0.5, chi=other)),
           ("SeparableSymbol", lambda a, other, frame, other_frame: fk.SeparableSymbol(
               a.spec, a.bands, other))]},
    "test_symbols::test_rough_chirp_refuses_a_negative_seed_and_an_overflowing_r": [
        Refusal(lambda spec_mid, fam_mid: fk.preset_rough_chirp(spec_mid, 1.5, 0.5, seed=-1, chi=fam_mid),
                fk.ParameterError, "seed=-1"),
        Refusal(lambda spec_mid, fam_mid: fk.preset_rough_chirp(spec_mid, 5000.0, 0.5, seed=0, chi=fam_mid),
                fk.ParameterError, "r=5000")],
    # r and delta are refused before band 1 is drawn, which takes transforms
    **{f"test_symbols::test_rough_chirp_checks_r_and_delta_before_drawing_a_band[{r}-{delta}-{text}]":
       Refusal(lambda spec_mid, fam_mid, r=r, delta=delta: fk.preset_rough_chirp(
           spec_mid, r, delta, seed=0, chi=fam_mid), fk.ParameterError, text) for r, delta, text in [
        (1.5, 3.0, "delta=3.0"), (1.5, -0.5, "delta=-0.5"), (0.0, 0.5, "r=0.0"), (np.nan, 0.5, "r=nan"),
        (5000.0, 0.5, "r=5000")]},
    **{f"test_symbols::test_symbol_file_grid_must_be_an_object[{key}]": Refusal(
        lambda tmp_path, grid=grid: fk.load_symbol(descriptor(
            tmp_path, {"kind": "analytic-preset", "preset": "identity", "grid": grid})),
        fk.InvalidInputError, "symbol descriptor grid")
       for key, grid in [("list", [64]), ("int", 64), ("str", "64")]},
    **{f"test_symbols::test_symbols_input_checks[{key}]": Refusal(call, error, match)
       for key, call, error, match in [
           ("dense-r", lambda spec_mid: fk.DenseSymbol(spec_mid, _never, r=0.0), fk.ParameterError,
            "r=0.0"),
           ("dense-delta", lambda spec_mid: fk.DenseSymbol(spec_mid, _never, delta=1.5), fk.ParameterError,
            "delta=1.5"),
           ("dense-m", lambda spec_mid: fk.DenseSymbol(spec_mid, _never, m=np.nan), fk.ParameterError,
            "order m=nan must be finite"),
           ("slice-shape", lambda spec_mid: fk.DenseSymbol(
               spec_mid, lambda eta: np.ones((8, 8))).eval([1.0, 0.0]), fk.InvalidInputError,
            "slice shape"),
           ("separable-band-range", lambda spec_mid, fam_mid: fk.SeparableSymbol(
               spec_mid, {fam_mid.J_max + 1: _ones(spec_mid)}, fam_mid), fk.ParameterError,
            "outside family range"),
           ("separable-grid", lambda spec_mid, fam_mid: fk.SeparableSymbol(
               spec_mid, {1: _ones(fk.GridSpec(N=16))}, fam_mid), fk.DimensionError, "grid differs"),
           ("seminorms-alpha>3", lambda spec_mid, fam_mid: fk.estimate_seminorms(
               fk.preset_identity(spec_mid), 4, fam_mid), fk.ParameterError,
            "alpha_max=4 must lie in 0..3"),
           ("paraproduct-grid", lambda spec_mid, fam_mid: fk.paraproduct_hh(
               _ones(spec_mid), _ones(fk.GridSpec(N=16)), fam_mid), fk.DimensionError, "different grids"),
           ("descriptor-without-grid", lambda tmp_path: fk.load_symbol(descriptor(
               tmp_path, {"kind": "analytic-preset", "preset": "identity"})), fk.InvalidInputError,
            "lacks a grid"),
           ("unknown-preset", lambda tmp_path: fk.load_symbol(descriptor(
               tmp_path, {"kind": "dense", "preset": "nope", "grid": _GRID16})), fk.InvalidInputError,
            "unknown preset 'nope'"),
           ("descriptor-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "analytic-preset", "preset": "rough_chirp", "params": {"r": 2, "delta": 0.5},
               "detla": 0.5, "grid": _GRID16})), fk.InvalidInputError, r"unknown keys \['detla'\]"),
           ("separable-descriptor-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "separable", "bands": [], "preset": "identity", "grid": _GRID16})),
            fk.InvalidInputError, r"unknown keys \['preset'\]"),
           ("descriptor-grid-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "analytic-preset", "preset": "identity", "grid": {**_GRID16, "M": 5}})),
            fk.InvalidInputError, r"unknown keys \['grid.M'\]"),
           ("descriptor-band-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "separable", "grid": _GRID16,
               "bands": [{"k": 1, "file": "absent.fiof"}, {"k": 2, "file": "absent.fiof", "w": 2}]})),
            fk.InvalidInputError, r"unknown keys \['bands\[1\].w'\]"),
           ("descriptor-params-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "analytic-preset", "preset": "rough_chirp", "grid": _GRID16,
               "params": {"r": 2, "delta": 0.5, "sede": 3}})), fk.InvalidInputError,
            r"unknown keys \['params.sede'\]"),
           ("identity-params-key", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "analytic-preset", "preset": "identity", "grid": _GRID16, "params": {"m": 1.0}})),
            fk.InvalidInputError, r"unknown keys \['params.m'\]"),
           ("descriptor-keys-on-three-levels", lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {
               "kind": "separable", "preset": "identity", "grid": {**_GRID16, "M": 5},
               "bands": [{"k": 1, "file": "absent.fiof", "w": 2}]})),
            fk.InvalidInputError, r"unknown keys \['preset', 'grid.M', 'bands\[0\].w'\]")]},
    "test_symbols::test_separable_descriptor_without_grid": Refusal(
        lambda tmp_path: fk.load_symbol(descriptor(tmp_path, {"kind": "separable", "bands": []})),
        fk.InvalidInputError, "lacks a grid"),
    **{f"test_symbols::test_separable_symbol_checks_its_class[kwargs{i}-{match}]": Refusal(
        lambda spec_mid, fam_mid, kwargs=kwargs: fk.SeparableSymbol(
            spec_mid, {1: _ones(spec_mid)}, fam_mid, **kwargs),
        fk.ParameterError, match) for i, (kwargs, match) in enumerate([({"r": 0.0}, "r=0.0"),
                                                                      ({"delta": 1.5}, "delta=1.5")])},
    "test_symbols::test_seminorms_refuse_a_negative_alpha_max": Refusal(
        lambda spec_mid, fam_mid: fk.estimate_seminorms(fk.preset_identity(spec_mid), -1, fam_mid),
        fk.ParameterError, "alpha_max=-1 must be an integer >= 0"),
    # 1.5 raised a TypeError in range(), after every band's samples were built
    "test_symbols::test_seminorms_refuse_a_fractional_alpha_max": Refusal(
        lambda spec_mid, fam_mid: fk.estimate_seminorms(fk.DenseSymbol(spec_mid, _never), 1.5, fam_mid),
        fk.ParameterError, "alpha_max=1.5 must be an integer >= 0"),
    "test_symbols::test_separable_descriptor_refuses_a_repeated_band": Refusal(
        lambda spec_mid, tmp_path: fk.load_symbol(_band_files(tmp_path, spec_mid, {
            "kind": "separable", "bands": [{"k": 1, "file": "one.fiof"}, {"k": 1, "file": "two.fiof"}]})),
        fk.InvalidInputError, "band 1 twice"),
    # int(True) is 1 and float(True) 1.0: band k = true would be read as band 1
    **{f"test_symbols::test_descriptor_refuses_booleans[{key}]": Refusal(
        lambda spec_mid, tmp_path, doc=doc: fk.load_symbol(_band_files(
            tmp_path, spec_mid, {"grid": {"N": spec_mid.N, "L": spec_mid.L}, **doc})),
        fk.InvalidInputError, "symbol descriptor .*=(True|False) is not") for key, doc in [
        ("band-k", {"kind": "separable", "bands": [{"k": True, "file": "one.fiof"}]}),
        ("separable-r", {"kind": "separable", "r": True, "bands": [{"k": 1, "file": "one.fiof"}]}),
        ("preset-r", {"kind": "analytic-preset", "preset": "identity", "r": True}),
        ("params-m", {"kind": "analytic-preset", "preset": "multiplier_bessel", "params": {"m": False}})]},
}
