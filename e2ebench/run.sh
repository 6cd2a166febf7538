#!/usr/bin/env bash
# Builds and runs the end-to-end ntvsimd benchmark against the checkout
# this script lives in. Every build product, cache and scratch file goes
# under .bench_build/ at the checkout root; nothing is downloaded.
#
#   bash e2ebench/run.sh --workload mc-study --seed 1 --seconds 15 --trace 0
#   bash e2ebench/run.sh run -workload all -seed 1 -o out.json
#   bash e2ebench/run.sh trace -workload ssta-study -seed 1 -o trace.json -chrome trace.chrome.json
#   bash e2ebench/run.sh compare -parent 'a/*.json' -change 'b/*.json'
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ntvsimd" ]]; then
	echo "e2ebench: $root is not an ntvsim checkout (no go.mod or cmd/ntvsimd to build)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
cd "$root"
exec "$build/bin/e2ebench" "$@"
