#!/usr/bin/env bash
# Every check CI runs on each numpy and scipy it installs, on the checkout's src/ and
# with a RuntimeWarning as an error in every Python process it starts: the tier-1
# suite, the demos, the benchmark's tracer tests and its output checks.
set -Eeuo pipefail
trap 'echo "checks.sh: line $LINENO failed: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}" PYTHONWARNINGS=error::RuntimeWarning
python -m pytest -q --continue-on-collection-errors --durations=15
for demo in demos/*.py; do python "$demo"; done
# the tracer tests run seed 3, while perfbench/references.json holds reference values
# for seeds 0 and 7 only, so the output checks run at each seed it holds
python -m pytest -q perfbench/test_perfbench.py
seeds=$(python -c 'import json; print(*json.load(open("perfbench/references.json"))["probe_sweep"])')
for seed in $seeds; do
    out=$(python perfbench/run.py --workload all --seed "$seed" --seconds 1)
    echo "$out"
    python -c 'import json, sys; n = json.load(sys.stdin)["failed"]; sys.exit(f"seed {sys.argv[1]}: {n} failed checks" if n else 0)' "$seed" <<< "${out##*$'\n'}"
done
