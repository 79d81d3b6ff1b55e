"""fiokit benchmark.

    python3 perfbench/run.py --workload probe_sweep --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --trace 1

One process drives a closed loop: each call into fiokit starts after the
previous one returns.  A run sets up its workload twice (setup_s is the
median), then repeats whole passes of the workload until --seconds of
pass time have elapsed (always at least one pass; run_s is the median pass
time), and checks every pass's outputs.  With --trace 1 the run instead
sets up and runs its passes with span wrappers installed and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in its own child process and prints one table.

fiokit is imported from the checkout's src/; without it the run stops
with a non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("probe_sweep", "l2_certify", "spectral_calculus")
# set-ups per untraced run (setup_s is their median); two, not three, to
# keep the benchmark inside its time budget (see README.md)
SETUPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_thread_pools() -> int:
    """Cap every BLAS/OpenMP pool at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else ncpu
        os.environ[var] = str(min(n, ncpu))
    return ncpu


def import_fiokit():
    if not os.path.isfile(os.path.join(SRC, "fiokit", "__init__.py")):
        sys.exit(f"perfbench: no fiokit sources under {SRC}")
    sys.path.insert(0, SRC)
    import fiokit

    if os.path.dirname(os.path.dirname(os.path.abspath(fiokit.__file__))) != SRC:
        sys.exit(f"perfbench: imported fiokit from {fiokit.__file__}, not {SRC}")
    return fiokit


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def _cpu_caches() -> dict:
    """CPU 0's caches as the kernel reports them, e.g. {"L1d": "48K"}."""
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches[f"L{fields['level']}{kind}"] = fields["size"]
    return caches


def environment(ncpu: int) -> dict:
    import numpy
    import scipy

    def conf(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    page, pages = conf("SC_PAGE_SIZE"), conf("SC_PHYS_PAGES")
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": ncpu,
        "cpu_count": os.cpu_count(),
        "caches": _cpu_caches(),
        "memory_bytes": page * pages if page and pages else None,
        "thread_limits": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_passes(wl, state, seconds, refs, tracer=None):
    """Passes until `seconds` of pass time; returns ((start, end) of each
    pass, stage regions of each pass, checks, last outputs)."""
    passes, stages, checks, outputs = [], [], [], None
    while sum(t1 - t0 for t0, t1 in passes) < seconds or not passes:
        gc.collect()
        if tracer is not None:
            tracer.run_id = f"pass-{len(passes)}"
        t0 = time.perf_counter()
        outputs, stage = wl.run(state)
        passes.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.run_id = "check"
        stages.append(stage)
        checks.extend(wl.check(state, outputs, refs))
    return passes, stages, checks, outputs


def print_metric(workload, name, value, unit, note=""):
    print(f"{workload:18s} {name:32s} {value:14.6g} {unit:6s} {note}")


def run_untraced(name, wl, seed, seconds, workdir, refs):
    """Times are reported at the reference machine speed (see speed.py);
    the wall times they come from are printed beside them."""
    import workloads
    from speed import SpeedSampler

    setups, state = [], None
    with SpeedSampler() as sampler:
        for _ in range(SETUPS):
            state = None
            gc.collect()
            _cold_library_caches()
            t0 = time.perf_counter()
            state = wl.setup(seed, workdir)
            setups.append(sampler.region(t0, time.perf_counter()))
        passes, stages, checks, outputs = run_passes(wl, state, seconds, refs)
    runs = [sampler.region(t0, t1) for t0, t1 in passes]

    def median(regions, i):
        return statistics.median(r[i] for r in regions)

    report = {
        "setup_s": (median(setups, 1), "s", "median of " + ", ".join(
            f"{r[1]:.3f}" for r in setups) + " at reference speed"),
        "setup_wall_s": (median(setups, 0), "s", "wall time of the same set-ups"),
        "run_s": (median(runs, 1), "s", f"median of {len(runs)} passes at reference speed"),
        "run_wall_s": (median(runs, 0), "s", "wall time of the same passes"),
    }
    for stage in stages[0]:
        report[stage] = (median([sampler.region(*s[stage]) for s in stages], 1), "s",
                         "median over passes at reference speed")
    if name == "l2_certify":
        report["certify_gap"] = (workloads.certify_gap(outputs, refs), "relative",
                                 "largest (sigma_ref - sigma) / sigma_ref")
    report["peak_rss_mb"] = (peak_rss_mb(), "MB", "peak resident memory of this process")
    failed = sum(not ok for _, ok, _ in checks)
    report["fail_ratio"] = (failed / len(checks), "share",
                            f"{failed} of {len(checks)} output checks failed")
    report["speed_samples"] = (len(sampler.samples), "count", "machine-speed samples taken")
    return report, checks, ("setup_s", "run_s", "peak_rss_mb")


def run_traced(name, wl, seed, seconds, workdir, refs):
    """Wall times, without speed sampling: its handler would land in spans."""
    import tracer as tracing

    rec = tracing.Recorder()
    rec.install()
    try:
        _cold_library_caches()
        state = wl.setup(seed, workdir)
        passes, _, checks, _ = run_passes(wl, state, seconds, refs, tracer=rec)
        rec.finish()
    finally:
        rec.uninstall()
    report = {metric: (value, unit, "") for metric, (value, unit)
              in tracing.layer_metrics(rec, len(passes)).items()}
    report["trace.run_s"] = (statistics.median(t1 - t0 for t0, t1 in passes), "s",
                             "traced pass wall time; minus untraced run_wall_s is the overhead")
    report["trace.spans"] = (len(rec.spans), "count", "spans recorded")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "passes": len(passes),
                   "fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": rec.spans}, fh)
    return report, checks, tuple(report)


def _cold_library_caches():
    """Every set-up starts without the frequency lattices earlier ones built."""
    import fiokit.grid

    fiokit.grid.lattice.cache_clear()


def run_one(args) -> int:
    ncpu = pin_thread_pools()
    import_fiokit()
    import workloads

    env = environment(ncpu)
    refs = workloads.load_references()
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        runner = run_traced if args.trace else run_untraced
        report, checks, keys = runner(args.workload, wl, args.seed, args.seconds, workdir, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for metric, (value, unit, note) in report.items():
        print_metric(args.workload, metric, value, unit, note)
    failed = [c for c in checks if not c[1]]
    for check, _, detail in failed:
        print(f"FAIL {args.workload} {check} {detail}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in keys},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results, lines, walls = {}, [], {}
    modes = (0, 1) if args.trace else (0,)
    for name in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            out = proc.stdout.strip().splitlines()
            lines.extend(line for line in out[:-1] if not line.startswith("# perfbench"))
            for line in out[:-1]:
                parts = line.split()
                if parts[1:2] == ["run_wall_s"]:
                    walls[name] = float(parts[2])
            results[(name, trace)] = json.loads(out[-1])
    print("\n".join(lines))
    if args.trace:
        for name in WORKLOAD_NAMES:
            overhead = (results[(name, 1)]["metrics"]["trace.run_s"]["value"]
                        - walls[name])
            print_metric(name, "trace.overhead_s", overhead, "s",
                         "traced pass wall time - untraced run_wall_s")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for (name, trace), r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
