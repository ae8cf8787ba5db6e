#!/bin/sh
# bench_analyze.sh runs the eviction-analysis benchmark and rewrites
# BENCH_analyze.json at the repo root with the measured throughput and
# memory at two trace lengths.
#
# The committed file documents what core.Analyze costs on this codebase
# (demand-line expansion, MIN replay, and per-line cue selection over a
# finagle-http trace held in memory): blocks/s is its throughput. Rerun after touching internal/core's analysis:
#
#	scripts/bench_analyze.sh [-benchtime 10x]
set -eu

cd "$(dirname "$0")/.."
benchtime="3x"
if [ "${1:-}" = "-benchtime" ] && [ -n "${2:-}" ]; then
	benchtime="$2"
fi

out="$(go test . -run '^$' \
	-bench '^BenchmarkAnalyze$' -benchtime "$benchtime" 2>&1)"
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v benchtime="$benchtime" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] = $i
		if ($(i+1) == "blocks/s")  blocks[name] = $i
		if ($(i+1) == "B/op")      bytes[name] = $i
		if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	if (n == 0) { print "bench_analyze: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"metric_note\": \"blocks_per_sec is profiled blocks analyzed per second by core.Analyze on an in-memory finagle-http trace; bytes_per_op includes the kept block array and the MIN oracle state\","
	print "  \"benchmarks\": {"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\"blocks_per_sec\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, blocks[name], ns[name], bytes[name], allocs[name], (i < n ? "," : "")
	}
	print "  }"
	print "}"
}' >BENCH_analyze.json

echo "wrote BENCH_analyze.json"
