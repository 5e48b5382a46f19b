#!/usr/bin/env bash
# Builds hlbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/hlbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, binary, result and span files)
# stays under .bench_build/ in the current directory. The build fails, and the
# script exits non-zero without a result, when the root module is not
# present above cmd/hlbench.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/bin/hlbench" .) >&2
exec "$out/bin/hlbench" "$@"
