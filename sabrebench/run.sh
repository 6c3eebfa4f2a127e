#!/usr/bin/env bash
# Builds sabred and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash sabrebench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sabred" || ! -d "$root/internal" ]]; then
	echo "sabrebench: run from the root of a repository checkout" >&2
	exit 2
fi
# The official Go distribution installs to /usr/local/go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/sabred" ./cmd/sabred >&2
(cd sabrebench && go build -o "$out/bin/sabrebench" .) >&2
exec "$out/bin/sabrebench" -sabred "$out/bin/sabred" -out "$out" "$@"
