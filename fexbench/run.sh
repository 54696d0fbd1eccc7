#!/usr/bin/env bash
# Builds fex and the benchmark from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash fexbench/run.sh --workload modeled-cold --seed 1 --seconds 20 --trace 0
#   bash fexbench/run.sh compare <results A> <results B>
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory: the Go build cache, both binaries, scratch state
# files and the result files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/fexbench"
mkdir -p "$out/tmp"
# The go command also writes telemetry under the user config directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

# fex's module is this directory's parent; without it the build fails
# and so does the benchmark.
(cd "$here" && go build -o "$out/bin/fex" fex/cmd/fex && go build -o "$out/bin/fexbench" .) >&2

if [ "${1:-}" = compare ]; then
	exec "$out/bin/fexbench" "$@"
fi
exec "$out/bin/fexbench" -fex "$out/bin/fex" -work "$out" "$@"
