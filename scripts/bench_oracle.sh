#!/bin/sh
# bench_oracle.sh runs the oracle-engine benchmark and rewrites
# BENCH_oracle.json at the repo root with the measured throughput and
# memory at two stream lengths.
#
# The committed file documents what the exact streaming engine costs on
# this codebase: events/s is its throughput, and bytes/op grows with the
# stream because the engine holds an 8 B/event next-use index (the events
# themselves are never materialized). Rerun after touching internal/opt:
#
#	scripts/bench_oracle.sh [-benchtime 10x]
set -eu

cd "$(dirname "$0")/.."
benchtime="5x"
if [ "${1:-}" = "-benchtime" ] && [ -n "${2:-}" ]; then
	benchtime="$2"
fi

out="$(go test ./internal/opt -run '^$' \
	-bench 'BenchmarkOracle' -benchtime "$benchtime" 2>&1)"
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v benchtime="$benchtime" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] = $i
		if ($(i+1) == "events/s")  events[name] = $i
		if ($(i+1) == "B/op")      bytes[name] = $i
		if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	if (n == 0) { print "bench_oracle: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"metric_note\": \"events_per_sec is exact-stream throughput; bytes_per_op grows with event count because it keeps an 8 B/event next-use index\","
	print "  \"benchmarks\": {"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\"events_per_sec\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, events[name], ns[name], bytes[name], allocs[name], (i < n ? "," : "")
	}
	print "  }"
	print "}"
}' >BENCH_oracle.json

echo "wrote BENCH_oracle.json"
