#!/usr/bin/env bash
# Prepare step and entry point of the benchmark: build evperf and the two
# real binaries it drives (evserve, evshardd) from this tree, outside every
# timer, then run evperf with the given arguments. Everything written —
# binaries, the go build cache, scratch files, traces — stays under
# bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench")"
out="$bench/out"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

# The go tool reads and writes only inside the checkout, and never the
# network: neither module needs anything beyond the standard library.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
# A stray go.work above the checkout must not change what gets built.
export GOWORK=off

start=$(date +%s%N)
(cd "$root" && go build -o "$out/bin/" ./cmd/evserve ./cmd/evshardd)
(cd "$bench" && go build -o "$out/bin/" ./cmd/evperf)
ns=$(( $(date +%s%N) - start ))
export EVPERF_BUILD_S="$(printf '%d.%09d' $((ns / 1000000000)) $((ns % 1000000000)))"

# evperf runs as a child, not through exec: its peak_rss_mb adds the peak of
# its own waited-for children, and after an exec the compilers above would
# count among them.
"$out/bin/evperf" "$@" &
pid=$!
trap 'kill "$pid" 2>/dev/null' INT TERM
code=0
wait "$pid" || code=$?
if kill -0 "$pid" 2>/dev/null; then
	# A trapped signal ends the first wait early; evperf is stopping its
	# children and removing its scratch files, so wait for it to finish.
	code=0
	wait "$pid" || code=$?
fi
exit "$code"
