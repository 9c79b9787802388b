#!/usr/bin/env bash
# Builds tafpga, tafpgad and the benchmark from source into .bench_build/
# and runs the benchmark from the root of the checkout:
#
#   bash tabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build and run output stays inside the checkout: the Go build cache,
# the binaries and the daemon's scratch state all live under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go build -o "$out/bin/" ./cmd/tafpga ./cmd/tafpgad >&2
go -C tabench build -o "$out/bin/tabench" . >&2
exec "$out/bin/tabench" --bin "$out/bin" --workdir "$out/run" "$@"
