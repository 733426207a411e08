#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash dagbench/run.sh --workload fig10-lbm --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, binary, fleet
# directories) goes under .bench_build in the checkout. The last line of
# standard output is the JSON result; progress goes to standard error.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "${root}/dagbench" && go build -o "${build}/dagbench" .)
exec "${build}/dagbench" --scratch "${build}" "$@"
