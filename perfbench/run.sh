#!/usr/bin/env bash
# Builds the benchmark and coldd from the source tree, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-ensemble --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, coldd caches, store
# probes and trace files. The build fails, and nothing is printed on
# stdout, when the directory does not hold the COLD source tree.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/coldd" ./cmd/coldd >&2
exec "$out/perfbench" -coldd "$out/coldd" -workdir "$out/work" "$@"
