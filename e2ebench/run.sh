#!/usr/bin/env bash
# Builds simkvd, simingestd and the load generator from the checkout in the
# current directory, then runs the loopback benchmark with the given flags:
#
#   bash e2ebench/run.sh --workload kv-read-mostly --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --smoke
#
# Every build product and Go cache lives under .bench_build/, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/simkvd" ./cmd/simkvd
go build -o "$out/simingestd" ./cmd/simingestd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -bin "$out" "$@"
