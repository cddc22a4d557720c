#!/usr/bin/env bash
# Build the benchmark with plain `go build` and replace this shell with
# the binary: no `go run` wrapper, no background job, no child left
# behind. Everything the build writes stays under .bench_build/ in the
# checkout (the binary, Go's caches and temporary files, and the go
# command's own configuration directory), which .gitignore names.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry" "$out/tmp"
# The go command counts its invocations under the user's configuration
# directory and, about once a day, forks a detached "telemetry" child to
# digest them — a write outside the checkout and a process that outlives
# the run. Give it a configuration directory of its own with telemetry off.
echo off > "$out/config/go/telemetry/mode"
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -C bench -buildvcs=false -o "$out/elephant-bench" .
exec "$out/elephant-bench" "$@"
