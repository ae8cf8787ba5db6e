#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash pipebench/run.sh --workload plan-kafka --seed 0 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the current directory. Without the repository's Go
# sources beside pipebench/ the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build/pipebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/pipebench" .) >&2
exec "$out/pipebench" "$@"
