#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload recommend --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, the binary, the stacks' files and
# the traces.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
if ! src="$(git rev-parse HEAD 2>/dev/null)"; then
	# Not a git checkout: name the sources by their digest instead.
	src="tree-$(find . -path ./.bench_build -prune -o -name '*.go' -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
PERFBENCH_SOURCE="$src" exec "$out/perfbench" --workdir "$out/work" "$@"
