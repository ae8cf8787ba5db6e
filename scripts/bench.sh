#!/bin/sh
# bench.sh runs one of the committed benchmarks five times (-count 5) and
# rewrites its BENCH_<NAME>.json at the repo root. Each metric is the
# median of the five runs, beside its _min and _max, so a committed
# figure carries its own spread.
#
#	scripts/bench.sh NAME [-benchtime X]
#
# NAME       what it times (default -benchtime); rerun it after touching
# analyze    core.Analyze on in-memory finagle-http traces of 50k and 500k
#            blocks (3x); internal/core's analysis
# oracle     the exact streaming Demand-MIN engine at two stream lengths
#            (5x); internal/opt
# replay     one strict decode pass over a generated trace, per-block,
#            ReadAt and mmap (1x); the decode path. RIPPLE_DECODE_BENCH_BLOCKS
#            sizes the trace (default 300000000 blocks, ~270 MB under TMPDIR)
# simulate   frontend.Run on a 50k-block finagle-http trace, LRU with no
#            prefetcher and with FDIP (10x); internal/frontend,
#            internal/cache, the policies and the prefetchers
# tune       ripple.TuneParallel: baseline plus the ten default thresholds,
#            LRU+FDIP, one worker, 100k kafka blocks (10x);
#            internal/core/tune.go, internal/prefetch, internal/frontend
# watch      watch.Run from no state over a 200k-block kafka trace file,
#            window = epoch = 2,048 and 20,000 blocks (3x); internal/watch
#            and every layer an epoch runs (analysis, tuning sweep)
set -eu

cd "$(dirname "$0")/.."
name="${1:-}"
benchtime=""
if [ "${2:-}" = "-benchtime" ] && [ -n "${3:-}" ]; then
	benchtime="$3"
fi

# Per benchmark: its package, -bench pattern, default -benchtime, the
# benchmark units it records and their JSON keys (unit=key), and the
# JSON section holding the benchmarks.
section=benchmarks
case "$name" in
analyze)
	pkg=. pattern='^BenchmarkAnalyze$' dflt=3x
	units='blocks/s=blocks_per_sec ns/op=ns_per_op B/op=bytes_per_op allocs/op=allocs_per_op'
	note='blocks_per_sec is profiled blocks analyzed per second by core.Analyze on an in-memory finagle-http trace; bytes_per_op includes the kept block array and the MIN oracle state'
	;;
oracle)
	pkg=./internal/opt pattern='BenchmarkOracle' dflt=5x
	units='events/s=events_per_sec ns/op=ns_per_op B/op=bytes_per_op allocs/op=allocs_per_op'
	note='events_per_sec is exact-stream throughput; bytes_per_op grows with event count because it keeps an 8 B/event next-use index'
	;;
replay)
	pkg=./internal/trace pattern='BenchmarkDecode' dflt=1x
	units='blocks/op=blocks_per_op ns/op=ns_per_op allocs/op=allocs_per_op'
	section=decode_throughput
	RIPPLE_DECODE_BENCH_BLOCKS="${RIPPLE_DECODE_BENCH_BLOCKS:-300000000}"
	export RIPPLE_DECODE_BENCH_BLOCKS
	;;
simulate)
	pkg=. pattern='^BenchmarkSimulate(LRU|FDIP)$' dflt=10x
	units='blocks/s=blocks_per_sec ns/op=ns_per_op B/op=bytes_per_op allocs/op=allocs_per_op'
	note='blocks_per_sec is trace blocks simulated per second by frontend.Run on an in-memory 50k-block finagle-http trace under Table II parameters; bytes_per_op and allocs_per_op are one run after the first, which leaves its prewarmed L2 (and an L3 only if a run needed one) on the free list'
	;;
tune)
	pkg=. pattern='^BenchmarkTune$' dflt=10x
	units='blocks/s=blocks_per_sec ns/op=ns_per_op B/op=bytes_per_op allocs/op=allocs_per_op tape_B/block=tape_bytes_per_block'
	note='blocks_per_sec is trace blocks tuned per second by ripple.TuneParallel (baseline plus the ten default thresholds, LRU+FDIP, Workers 1) on an in-memory 100k-block kafka trace; every run of a sweep replays one FDIP tape, whose recorded size per trace block is tape_bytes_per_block'
	;;
watch)
	pkg=./internal/watch pattern='^BenchmarkWatch$' dflt=3x
	units='blocks/s=blocks_per_sec ns/op=ns_per_op B/op=bytes_per_op allocs/op=allocs_per_op sims/epoch=sims_per_epoch'
	note='blocks_per_sec is trace blocks watched per second by watch.Run from no state over a 200k-block kafka trace file, with window = epoch = 2048 blocks (the ripplewatch default) and 20000 (the pipebench watch-kafka window) and the default LRU+FDIP sweep; sims_per_epoch is the simulations each epoch sweep runs, counted outside the timer'
	;;
*)
	echo "usage: scripts/bench.sh analyze|oracle|replay|simulate|tune|watch [-benchtime X]" >&2
	exit 2
	;;
esac
benchtime="${benchtime:-$dflt}"
count=5
# The lines above the section; awk turns each \n into a newline.
if [ "$name" = replay ]; then
	header="  \"decode_trace_blocks\": $RIPPLE_DECODE_BENCH_BLOCKS,\n  \"count\": $count,\n  \"decode_note\": \"one full strict decode pass over the generated trace, the median of $count runs beside each metric's _min and _max; blocks_per_sec = blocks_per_op / ns_per_op * 1e9. NextLoop is the unbatched per-block baseline, Serial the batched ReadAt fallback, Mmap the zero-copy mapped fast path\","
else
	header="  \"benchtime\": \"$benchtime\",\n  \"count\": $count,\n  \"metric_note\": \"the median of $count runs beside each metric's _min and _max; $note\","
fi

out="$(go test "$pkg" -run '^$' -bench "$pattern" -benchtime "$benchtime" \
	-count "$count" -timeout 60m 2>&1)"
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v units="$units" -v header="$header" -v section="$section" \
	-v derive="$([ "$name" = replay ] && echo 1 || echo 0)" '
BEGIN {
	nu = split(units, pairs, " ")
	for (i = 1; i <= nu; i++) {
		split(pairs[i], kv, "=")
		key[kv[1]] = kv[2]
		keys[++nk] = kv[2]
	}
	if (derive) keys[++nk] = "blocks_per_sec"
}
function add(name, k, v) { vals[name, k, ++cnt[name, k]] = v }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	bl = ""; ns = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) in key) add(name, key[$(i+1)], $i)
		if ($(i+1) == "blocks/op") bl = $i
		if ($(i+1) == "ns/op") ns = $i
	}
	if (derive && ns + 0 > 0) add(name, "blocks_per_sec", sprintf("%.0f", bl / ns * 1e9))
}
END {
	if (n == 0) { print "bench: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	print header
	printf "  \"%s\": {\n", section
	for (b = 1; b <= n; b++) {
		name = order[b]
		line = ""
		for (j = 1; j <= nk; j++) {
			k = keys[j]
			c = cnt[name, k]
			if (c == 0) continue
			# Sort the runs of this metric numerically (insertion sort).
			for (i = 1; i <= c; i++) {
				v = vals[name, k, i]
				for (m = i - 1; m >= 1 && s[m] + 0 > v + 0; m--) s[m+1] = s[m]
				s[m+1] = v
			}
			line = line (line == "" ? "" : ", ") \
				sprintf("\"%s\": %s, \"%s_min\": %s, \"%s_max\": %s", k, s[int((c + 1) / 2)], k, s[1], k, s[c])
		}
		printf "    \"%s\": {%s}%s\n", name, line, (b < n ? "," : "")
	}
	print "  }"
	print "}"
}' >"BENCH_$name.json"

echo "wrote BENCH_$name.json"
