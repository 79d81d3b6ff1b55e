"""Tracing must change no output bit, and must leave fiokit untouched
when it is off or after it is removed.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload's set-up and one pass twice, untraced and traced
(about three minutes, most of it probe_sweep).
"""

import sys

import pytest

import run

run.pin_thread_pools()
fk = run.import_fiokit()

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def namespaces():
    """Identity of every attribute of every fiokit module and of
    every method of the classes the tracer patches."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "fiokit" or name.startswith("fiokit."):
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for cls in (fk.ParabolicFrame, fk.LittlewoodPaleyFamily):
        snap.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    return snap


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_bit_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    refs = workloads.load_references()
    before = namespaces()

    (tmp_path / "plain").mkdir()
    plain, _ = wl.run(wl.setup(SEED, str(tmp_path / "plain")))
    assert namespaces() == before, "an untraced pass changed a fiokit namespace"

    original = fk.norms.hpfio_norm
    rec = tracer.Recorder()
    rec.install()
    try:
        assert fk.hpfio_norm is not original
        assert fk.operators.hpfio_norm is fk.hpfio_norm is fk.norms.hpfio_norm
        (tmp_path / "traced").mkdir()
        state = wl.setup(SEED, str(tmp_path / "traced"))
        rec.run_id = "pass-0"
        traced, _ = wl.run(state)
        rec.finish()
    finally:
        rec.uninstall()
    assert namespaces() == before, "uninstall left a wrapper behind"

    assert wl.digest(traced) == wl.digest(plain)
    assert all(ok for _, ok, _ in wl.check(state, traced, refs))
    metrics = tracer.layer_metrics(rec, passes=1)
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["grid.fft_calls"][0] > 0
    if name == "probe_sweep":
        assert metrics["norms.hpfio_calls"][0] == 4 * 2 * len(state.family)
    else:
        assert metrics["norms.hpfio_calls"][0] == 0
    assert (metrics["symbols.cm_peak_mb"][0] > 0) == (name == "spectral_calculus")


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    rec.run_id = "pass-0"
    rec.spans = [("outer", 0.0, 10.0, -1, "pass-0"),
                 ("inner", 1.0, 3.0, 0, "pass-0"),
                 ("inner", 4.0, 8.0, 0, "pass-0"),
                 ("leaf", 5.0, 6.0, 2, "pass-0")]
    agg = tracer._aggregate(rec)
    assert agg[("timed", "outer")]["self"] == pytest.approx(4.0)
    assert agg[("timed", "inner")]["self"] == pytest.approx(5.0)
    assert agg[("timed", "inner")]["total"] == pytest.approx(6.0)
    assert agg[("timed", "leaf")]["self"] == pytest.approx(1.0)
