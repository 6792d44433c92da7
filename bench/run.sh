#!/usr/bin/env bash
# Builds the benchmark from source inside its own directory and runs it.
# Everything it leaves behind (binary, Go build cache and temporaries,
# journals, sockets, traces) is under bench/out, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp" \
	XDG_CONFIG_HOME="$PWD/out/config" GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
