#!/bin/sh
# check_examples.sh builds every program under examples/ and diffs its
# stdout against the committed examples/<name>/output.golden. The
# examples print deterministic numbers, so any difference is a change in
# the library's results.
#
# Run from anywhere; needs only the go toolchain:
#
#	scripts/check_examples.sh           # check
#	scripts/check_examples.sh -update   # rewrite the goldens
set -eu

cd "$(dirname "$0")/.."
update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT INT TERM

failed=0
for dir in examples/*/; do
	dir="${dir%/}"
	name="$(basename "$dir")"
	go build -o "$work/$name" "./$dir"
	"$work/$name" >"$work/$name.out"
	golden="$dir/output.golden"
	if [ "$update" = 1 ]; then
		cp "$work/$name.out" "$golden"
		echo "rewrote $golden"
	elif diff -u "$golden" "$work/$name.out"; then
		echo "ok   $name"
	else
		echo "FAIL $name: stdout differs from $golden (rerun with -update if intended)"
		failed=1
	fi
done
exit "$failed"
