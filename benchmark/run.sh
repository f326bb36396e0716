#!/usr/bin/env bash
# Builds the TVNEP benchmark from source and runs it with the given flags.
#
#   bash benchmark/run.sh --workload admit-stream --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the span files of traced runs stay under $CARGO_TARGET_DIR (default
# .bench_build), so the run touches nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and benchmark/go.mod not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$out/tvnep-benchmark" .)
exec "$out/tvnep-benchmark" --out-dir "$out" "$@"
