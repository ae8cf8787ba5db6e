#!/bin/sh
# bench_replay.sh measures trace decode throughput and rewrites
# BENCH_replay.json at the repo root: one full pass over a generated
# trace, reported as blocks_per_sec for the unbatched baseline, the
# ReadAt fallback (forced by the tests' mapping seam), and the mmap fast
# path.
#
# RIPPLE_DECODE_BENCH_BLOCKS sizes the generated trace (default
# 300000000 blocks ~= 270 MB at ~0.9 bytes/block; the multi-hundred-MB
# scale the committed numbers are quoted at). Lower it for a quick
# local run. The trace is written under TMPDIR. Rerun after touching
# the decode path:
#
#	scripts/bench_replay.sh
set -eu

cd "$(dirname "$0")/.."
decode_blocks="${RIPPLE_DECODE_BENCH_BLOCKS:-300000000}"

decode_out="$(RIPPLE_DECODE_BENCH_BLOCKS="$decode_blocks" go test ./internal/trace -run '^$' \
	-bench 'BenchmarkDecode' -benchtime 1x -timeout 60m 2>&1)"
printf '%s\n' "$decode_out"

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
	print "{"
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
}' >BENCH_replay.json

echo "wrote BENCH_replay.json"
