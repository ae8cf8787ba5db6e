#!/bin/sh
# bench_replay.sh runs the replay-acceleration benchmarks and rewrites
# BENCH_replay.json at the repo root with the measured decode work.
#
# Two sections: "benchmarks" documents the win the seek index and
# checkpointed warmup buy (blocks decoded per op is the headline metric
# — the accelerations cut decode work, not just wall clock, which
# varies with the host); "decode_throughput" is the end-to-end hot-path
# headline, one full pass over a generated trace reported as
# blocks_per_sec for the unbatched baseline, the ReadAt fallback (forced
# by the tests' mapping seam), and the mmap fast path.
#
# RIPPLE_DECODE_BENCH_BLOCKS sizes the generated trace (default
# 300000000 blocks ~= 270 MB at ~0.9 bytes/block; the multi-hundred-MB
# scale the committed numbers are quoted at). Lower it for a quick
# local run. Rerun after touching the replay or decode path:
#
#	scripts/bench_replay.sh [-benchtime 10x]
set -eu

cd "$(dirname "$0")/.."
benchtime="5x"
if [ "${1:-}" = "-benchtime" ] && [ -n "${2:-}" ]; then
	benchtime="$2"
fi
decode_blocks="${RIPPLE_DECODE_BENCH_BLOCKS:-300000000}"

core_out="$(go test ./internal/core -run '^$' \
	-bench 'BenchmarkWindowReplay|BenchmarkTune' -benchtime "$benchtime" 2>&1)"
printf '%s\n' "$core_out"

decode_out="$(RIPPLE_DECODE_BENCH_BLOCKS="$decode_blocks" go test ./internal/trace -run '^$' \
	-bench 'BenchmarkDecode' -benchtime 1x -timeout 60m 2>&1)"
printf '%s\n' "$decode_out"

{
	printf '%s\n' "$core_out" | awk -v benchtime="$benchtime" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] = $i
		if ($(i+1) == "blocks/op") blocks[name] = $i
		if ($(i+1) == "B/op")      bytes[name] = $i
		if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	if (n == 0) { print "bench_replay: no core benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print "  \"metric_note\": \"blocks_per_op counts decoded (or generated) trace blocks; the seek index and checkpointed warmup are decode-work optimizations, so this is the stable headline number\","
	print "  \"benchmarks\": {"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\"blocks_per_op\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, blocks[name], ns[name], bytes[name], allocs[name], (i < n ? "," : "")
	}
	print "  },"
}'
	printf '%s\n' "$decode_out" | awk -v blocks="$decode_blocks" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns[name] = $i
		if ($(i+1) == "blocks/op") bl[name] = $i
		if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	if (n == 0) { print "bench_replay: no decode benchmark lines parsed" > "/dev/stderr"; exit 1 }
	printf "  \"decode_trace_blocks\": %s,\n", blocks
	print "  \"decode_note\": \"one full strict decode pass over the generated trace; blocks_per_sec = blocks_per_op / ns_per_op * 1e9. NextLoop is the unbatched per-block baseline, Serial the batched ReadAt fallback, Mmap the zero-copy mapped fast path\","
	print "  \"decode_throughput\": {"
	for (i = 1; i <= n; i++) {
		name = order[i]
		bps = (ns[name] + 0 > 0) ? bl[name] / ns[name] * 1e9 : 0
		printf "    \"%s\": {\"blocks_per_op\": %s, \"ns_per_op\": %s, \"allocs_per_op\": %s, \"blocks_per_sec\": %.0f}%s\n", \
			name, bl[name], ns[name], allocs[name], bps, (i < n ? "," : "")
	}
	print "  }"
	print "}"
}'
} >BENCH_replay.json

echo "wrote BENCH_replay.json"
