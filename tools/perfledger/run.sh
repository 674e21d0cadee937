#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds perfledger from source into the
# checkout's .bench_build/ and runs it with the driver's arguments. Go's build
# cache, temporaries, GOPATH and per-user config all point inside
# .bench_build/, so nothing is written outside the checkout. Run from the
# root of a checkout.
set -euo pipefail
# Without the program there is nothing to build: fail before starting anything.
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "perfledger: no iotscope checkout in $PWD (go.mod, internal/ missing)" >&2
	exit 2
fi
build="$PWD/.bench_build"
# The go command of Go 1.23+ starts a detached telemetry child (its own
# session, not waited for) whenever its config dir has no upload token for the
# day, and a fresh dir never has one. That child outlives a go command that
# exits early. Telemetry mode "off" in the config dir go is pointed at stops
# it from being started at all.
mkdir -p "$build/gotmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/perfledger.bin" ./tools/perfledger
exec "$build/perfledger.bin" -workdir "$build/perfledger" "$@"
