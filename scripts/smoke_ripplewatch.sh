#!/bin/sh
# smoke_ripplewatch.sh is the loopback end-to-end check for continuous
# profiling: it generates a trace, replays it as a live, growing file
# behind a bursty shell appender with one injected mid-stream fault, and
# asserts the properties the watcher exists for:
#
#   1. a live watcher tailing the growing file publishes revisions and
#      completes when the stream's END packet arrives, accounting the
#      damaged region in its coverage;
#   2. SIGTERM stops a parked watcher cleanly (exit 0) after flushing a
#      checkpoint, and a restarted watcher resumes from it;
#   3. the interrupted-then-resumed watcher's revision files are
#      byte-identical to an uninterrupted offline run over the same
#      final bytes;
#   4. checkpointing more often than the epochs run moves no revision:
#      an offline run at -checkpoint-every 256 publishes the default
#      cadence's files byte for byte.
#
# Run from anywhere; needs only the go toolchain:
#
#	scripts/smoke_ripplewatch.sh
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
watch_pid=""
cleanup() {
	if [ -n "$watch_pid" ]; then
		kill "$watch_pid" 2>/dev/null || true
		wait "$watch_pid" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "smoke_ripplewatch: building ripplegen and ripplewatch"
go build -o "$work/ripplegen" ./cmd/ripplegen
go build -o "$work/ripplewatch" ./cmd/ripplewatch

echo "smoke_ripplewatch: generating a sync-pointed trace"
"$work/ripplegen" -app finagle-http -blocks 30000 -syncevery 256 \
	-out "$work/app" >/dev/null

# Damage the stream mid-file: zero a 64-byte span in the middle third,
# away from the header and the END packet. The watcher must resync and
# account the loss, not die or silently absorb it.
size="$(wc -c <"$work/app.pt")"
mid=$((size / 2))
cp "$work/app.pt" "$work/final.pt"
dd if=/dev/zero of="$work/final.pt" bs=1 seek="$mid" count=64 \
	conv=notrunc 2>/dev/null

watch_args="-prog $work/app.prog -window 1024 -epoch 1024 -threshold 0.6 \
	-hysteresis 0.000001 -stable 1 -poll 1ms"

echo "smoke_ripplewatch: offline reference run"
"$work/ripplewatch" $watch_args -pt "$work/final.pt" \
	-state "$work/ref.ptwatch" -out "$work/ref-plans" \
	-follow=false >"$work/ref.out"
grep -q '^final: outcome=complete' "$work/ref.out" || {
	echo "smoke_ripplewatch: reference run did not complete:" >&2
	cat "$work/ref.out" >&2
	exit 1
}
nref="$(ls "$work/ref-plans" | wc -l)"
if [ "$nref" -lt 2 ]; then
	echo "smoke_ripplewatch: reference run published $nref revisions, want >= 2" >&2
	cat "$work/ref.out" >&2
	exit 1
fi
grep -q 'watch: damage at offset' "$work/ref.out" || {
	echo "smoke_ripplewatch: injected damage never surfaced" >&2
	exit 1
}

# Property 4: a checkpoint before each epoch changes no revision.
echo "smoke_ripplewatch: offline run at a finer checkpoint cadence"
"$work/ripplewatch" $watch_args -checkpoint-every 256 -pt "$work/final.pt" \
	-state "$work/fine.ptwatch" -out "$work/fine-plans" \
	-follow=false >"$work/fine.out"
diff -r "$work/ref-plans" "$work/fine-plans" >/dev/null || {
	echo "smoke_ripplewatch: -checkpoint-every 256 revisions differ from the default cadence's" >&2
	diff -r "$work/ref-plans" "$work/fine-plans" >&2 || true
	exit 1
}

# Property 1+2: live watcher behind a bursty appender; SIGTERM mid-run.
echo "smoke_ripplewatch: live watcher behind a bursty appender"
cp /dev/null "$work/live.pt"
mkdir -p "$work/live-plans"
"$work/ripplewatch" $watch_args -pt "$work/live.pt" \
	-state "$work/live.ptwatch" -out "$work/live-plans" \
	>"$work/live1.out" 2>&1 &
watch_pid=$!

# Append the first 60% in bursts while the watcher tails.
head_bytes=$((size * 3 / 5))
off=0
while [ "$off" -lt "$head_bytes" ]; do
	n=$((1024 + off % 3072))
	tail -c +$((off + 1)) "$work/final.pt" | head -c "$n" >>"$work/live.pt"
	off=$((off + n))
	sleep 0.01
done

# Let the watcher drain to the live edge, then stop it with SIGTERM.
sleep 1
kill -TERM "$watch_pid"
rc=0
wait "$watch_pid" || rc=$?
watch_pid=""
if [ "$rc" -ne 0 ]; then
	echo "smoke_ripplewatch: SIGTERM exit status $rc, want 0:" >&2
	cat "$work/live1.out" >&2
	exit 1
fi
grep -q '^final: outcome=canceled' "$work/live1.out" || {
	echo "smoke_ripplewatch: interrupted run did not report cancellation:" >&2
	cat "$work/live1.out" >&2
	exit 1
}
if [ ! -s "$work/live.ptwatch" ]; then
	echo "smoke_ripplewatch: no checkpoint after SIGTERM" >&2
	exit 1
fi

# Finish the stream and restart the watcher: it must resume from the
# checkpoint and complete.
echo "smoke_ripplewatch: restarting from the checkpoint"
tail -c +$((off + 1)) "$work/final.pt" >>"$work/live.pt"
"$work/ripplewatch" $watch_args -pt "$work/live.pt" \
	-state "$work/live.ptwatch" -out "$work/live-plans" \
	>"$work/live2.out" 2>&1
grep -q '^watch: resumed at block' "$work/live2.out" || {
	echo "smoke_ripplewatch: restarted watcher did not resume:" >&2
	cat "$work/live2.out" >&2
	exit 1
}
grep -q '^final: outcome=complete' "$work/live2.out" || {
	echo "smoke_ripplewatch: restarted watcher did not complete:" >&2
	cat "$work/live2.out" >&2
	exit 1
}

# Property 3: revision files byte-identical to the offline reference.
diff -r "$work/ref-plans" "$work/live-plans" >/dev/null || {
	echo "smoke_ripplewatch: resumed revisions differ from the offline reference" >&2
	diff -r "$work/ref-plans" "$work/live-plans" >&2 || true
	exit 1
}

echo "smoke_ripplewatch: OK ($nref revisions, damage accounted, SIGTERM resume and checkpoint cadence byte-identical)"
