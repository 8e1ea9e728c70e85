#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given, for example:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (the binary, the Go build cache, temporary
# files, the go command's telemetry counters) stays under .bench_build/.
# A checkout without the influmax module beside perfbench/ fails to
# build, so the script exits non-zero before printing any result.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/modcache" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" GOMODCACHE="${out}/modcache"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off CGO_ENABLED=0
go -C "${root}/perfbench" build -o "${out}/perfbench" . 1>&2
exec "${out}/perfbench" --out "${out}" "$@"
