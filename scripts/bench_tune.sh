#!/bin/sh
# bench_tune.sh runs the tuning benchmark and rewrites BENCH_tune.json at
# the repo root with the measured throughput, memory and tape size.
#
# The committed file documents what core.TuneParallel costs on this
# codebase: the baseline plus the ten default-threshold plans simulated
# under LRU+FDIP over an in-memory 100k-block kafka trace, on one worker,
# every run replaying one recorded FDIP tape. blocks/s is trace blocks
# tuned per second, and tape_bytes_per_block the tape's size. Rerun after
# touching internal/core/tune.go, internal/prefetch or internal/frontend:
#
#	scripts/bench_tune.sh [-benchtime 10x]
set -eu

cd "$(dirname "$0")/.."
benchtime="10x"
if [ "${1:-}" = "-benchtime" ] && [ -n "${2:-}" ]; then
	benchtime="$2"
fi

out="$(go test . -run '^$' -bench '^BenchmarkTune$' -benchtime "$benchtime" 2>&1)"
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v benchtime="$benchtime" '
/^BenchmarkTune/ {
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")        ns = $i
		if ($(i+1) == "blocks/s")     blocks = $i
		if ($(i+1) == "tape_B/block") tape = $i
		if ($(i+1) == "B/op")         bytes = $i
		if ($(i+1) == "allocs/op")    allocs = $i
	}
	found = 1
}
END {
	if (!found) { print "bench_tune: no benchmark line parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"metric_note\": \"blocks_per_sec is trace blocks tuned per second by ripple.TuneParallel (baseline plus the ten default thresholds, LRU+FDIP, Workers 1) on an in-memory 100k-block kafka trace; every run of a sweep replays one FDIP tape, whose recorded size per trace block is tape_bytes_per_block\","
	print "  \"benchmarks\": {"
	printf "    \"BenchmarkTune\": {\"blocks_per_sec\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"tape_bytes_per_block\": %s}\n", \
		blocks, ns, bytes, allocs, tape
	print "  }"
	print "}"
}' >BENCH_tune.json

echo "wrote BENCH_tune.json"
