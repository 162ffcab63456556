#!/usr/bin/env bash
# Runs the benchmark once per seed and keeps each run's output in OUTDIR,
# the input benchdiff reads. Run from the repository root:
#
#	bash perfbench/runs.sh .bench_build/runs/parent fleet-stream 0 1 2 3 4 5
#	(cd perfbench && go run ./benchdiff -bench ../BENCHMARK.json ../.bench_build/runs/parent)
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: bash perfbench/runs.sh OUTDIR WORKLOAD TRACE SEED..." >&2
	exit 2
fi
out=$1 workload=$2 trace=$3
shift 3
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$out"
for seed in "$@"; do
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
		>"$out/$workload-t$trace-s$seed.out"
done
