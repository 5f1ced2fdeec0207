#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash e2ebench/run.sh --workload synth-phy256 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and cache file goes under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
