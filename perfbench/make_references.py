"""Regenerate perfbench/references.json.

    python3 perfbench/make_references.py

- probe_sweep: every ratio, slope and certificate of one pass, for the
  default seed and one held-out seed.  Runs must match them to 1e-10
  relative.
- l2_certify: sigma_ref = ||Phi(D) T Phi(D)^-1||_2 for each fixed chirp,
  from ARPACK Lanczos (scipy.sparse.linalg.svds) to a tight tolerance.
  Phi = sqrt(q^2 + sum_l w_l phi_l^2) is rebuilt here from the frame's
  public pieces instead of taken from fiokit.operators, so the reference
  shares no code with the certificate it checks.

Takes a few minutes (two probe_sweep passes at N = 256).
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEED, HELD_OUT_SEED = 0, 7
SVDS_TOL = 1e-13


def sigma_ref(fk, chirp, frame) -> float:
    import numpy as np
    from scipy.sparse.linalg import LinearOperator, svds

    spec = frame.spec
    w2 = np.zeros(spec.N**spec.n)
    for l in range(frame.n_directions):
        idx, vals = frame.sparse(l)
        w2[idx] += frame.directions.weights[l] * vals**2
    q = fk.falling(fk.lattice(spec).mags, 2.0, 4.0).ravel()
    phi = np.sqrt(q**2 + w2).reshape(spec.shape)

    def multiplier(values, v):
        return np.fft.ifftn(values * np.fft.fftn(v))

    def field(x):
        return fk.GridField(spec, x.reshape(spec.shape))

    def matvec(x):
        u = multiplier(1.0 / phi, x.reshape(spec.shape))
        return multiplier(phi, fk.apply_separable(chirp, field(u)).samples).ravel()

    def rmatvec(y):
        u = multiplier(phi, y.reshape(spec.shape))
        return multiplier(1.0 / phi, fk.apply_separable_adjoint(chirp, field(u)).samples).ravel()

    n = spec.N**spec.n
    op = LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=complex)
    v0 = np.random.default_rng(12345).standard_normal(n) + 0j
    s = svds(op, k=1, tol=SVDS_TOL, v0=v0, maxiter=5000, return_singular_vectors=False)
    return float(s[0])


def main() -> int:
    run.pin_thread_pools()
    fk = run.import_fiokit()
    import workloads

    refs = {"probe_sweep": {}, "l2_certify": {}}
    # neither set-up writes files, so they get no working directory
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        reports, _ = workloads.probe_run(workloads.probe_setup(seed, None))
        refs["probe_sweep"][str(seed)] = workloads.probe_digest(reports)
        print(f"probe_sweep seed {seed}: done", flush=True)
    for name, chirp, frame in workloads.cert_setup(workloads.CERT_CHIRP_SEED, None).cases:
        refs["l2_certify"][name] = sigma_ref(fk, chirp, frame)
        print(f"l2_certify {name}: sigma_ref = {refs['l2_certify'][name]!r}", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
