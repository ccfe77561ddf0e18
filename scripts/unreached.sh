#!/usr/bin/env bash
# unreached.sh lists the non-test functions that no program reaches.
#
# It builds cmd/bench, cmd/diag and the repository benchmark with
# statement coverage over every sgxbench package, runs `cmd/bench -quick`,
# `benchmark -smoke` and the cmd/diag command lines listed below, and
# prints each function the runs left at 0 % as "file:line function".
# Tests do not count: a function only a test calls is listed.
#
# Usage (from anywhere inside the repository):
#
#	scripts/unreached.sh              # all three programs
#	scripts/unreached.sh -no-benchmark  # skip the benchmark smoke run
set -euo pipefail

run_benchmark=1
case "${1:-}" in
"") ;;
-no-benchmark) run_benchmark=0 ;;
*)
	echo "usage: $0 [-no-benchmark]" >&2
	exit 2
	;;
esac

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov"

progs="./cmd/bench ./cmd/diag"
if [ "$run_benchmark" = 1 ]; then
	progs="$progs ./benchmark"
fi
for prog in $progs; do
	go build -cover -coverpkg=sgxbench/... -o "$tmp/$(basename "$prog")" "$prog"
done
export GOCOVERDIR="$tmp/cov"

"$tmp/bench" -quick -out "$tmp/bench.json" >/dev/null
if [ "$run_benchmark" = 1 ]; then
	"$tmp/benchmark" -smoke -seconds 1 -outdir "$tmp/out" >/dev/null
fi
# One cmd/diag run per join algorithm, naive and optimized, and one
# golden-entry replay per entry family.
while read -r args; do
	# shellcheck disable=SC2086 # each line is a list of arguments
	"$tmp/diag" $args >/dev/null
done <<EOF
-alg RHO -setting die -scale 512
-alg RHO -setting die -scale 512 -opt
-alg PHT -setting die -scale 512
-alg PHT -setting plainm -scale 512 -opt
-alg MWAY -setting die -scale 512 -opt
-alg INL -setting die -scale 512 -opt
-alg CrkJoin -setting die -scale 512 -opt
-replay q2.filter-join-agg -setting die -profile $tmp/profile.folded
-replay plan.s09.j1.sel250.u.agg@epc2 -setting die
-replay serve.mutex.dyn -setting die
-replay scale.shard.batch.c256 -setting die
-replay spill.join.grace@2x -setting die
-replay fault.crash.admit -setting die -trace $tmp/trace.json
EOF

go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cov.txt"
go tool cover -func="$tmp/cov.txt" |
	awk '$NF == "0.0%" { sub(/^sgxbench\//, "", $1); print $1, $2 }'
