#!/bin/sh
# check_experiments.sh regenerates every table and figure with
# `rippleexp -run all -check` at EXPERIMENTS.md's scale (the defaults:
# nine apps, 600k-block traces, 200k warmup) and fails unless
#
#   - every printed table equals its fenced code block in EXPERIMENTS.md
#     byte for byte, and every such block has a table, and
#   - every paper claim the run checks holds.
#
# The tables are deterministic, so any difference is a change in the
# reproduction's results. A full run takes 3-4 minutes on 2 vCPUs.
# Arguments after the mode go to rippleexp; `-cachedir DIR` makes a
# rerun over unchanged code read its results from DIR.
#
#	scripts/check_experiments.sh                  # check
#	scripts/check_experiments.sh -update          # rewrite the table blocks
#	scripts/check_experiments.sh -cachedir /tmp/x # check, caching results
set -eu

cd "$(dirname "$0")/.."
update=0
if [ "${1:-}" = "-update" ]; then
	update=1
	shift
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT INT TERM

go build -o "$work/rippleexp" ./cmd/rippleexp
status=0
"$work/rippleexp" -run all -check -q "$@" >"$work/run.out" || status=$?

# Split the run into one file per table: a table starts at its "== id:"
# line and ends at the next blank line. The doc's tables are the fenced
# blocks whose first line is such a header.
mkdir "$work/run" "$work/doc"
awk -v dir="$work/run" '
/^== [^ :]+: / { id = substr($2, 1, length($2) - 1); out = dir "/" id; print id }
/^$/           { if (out != "") close(out); out = "" }
out != ""      { print >out }
' "$work/run.out" >"$work/run.ids"
awk -v dir="$work/doc" '
/^```/                  { inblock = !inblock; first = inblock; if (out != "") close(out); out = ""; next }
first && /^== [^ :]+: / { id = substr($2, 1, length($2) - 1); out = dir "/" id; print id }
                        { first = 0 }
out != ""               { print >out }
' EXPERIMENTS.md >"$work/doc.ids"

failed=0
if [ "$update" = 1 ]; then
	awk -v dir="$work/run" '
	/^```/ { inblock = !inblock; first = inblock; skip = 0; print; next }
	skip   { next }
	first && /^== [^ :]+: / {
		first = 0
		file = dir "/" substr($2, 1, length($2) - 1)
		if ((getline line <file) > 0) {
			print line
			while ((getline line <file) > 0) print line
			close(file)
			skip = 1
			next
		}
	}
	{ first = 0; print }
	' EXPERIMENTS.md >"$work/EXPERIMENTS.md"
	cp "$work/EXPERIMENTS.md" EXPERIMENTS.md
	echo "rewrote the table blocks of EXPERIMENTS.md"
fi

n=0
while read -r id; do
	n=$((n + 1))
	if ! grep -qx "$id" "$work/doc.ids"; then
		echo "FAIL $id: no code block in EXPERIMENTS.md (add one with its prose)"
		failed=1
	elif [ "$update" = 0 ] && ! diff -u "$work/doc/$id" "$work/run/$id"; then
		echo "FAIL $id: table differs from EXPERIMENTS.md (rerun with -update if intended)"
		failed=1
	fi
done <"$work/run.ids"
while read -r id; do
	if ! grep -qx "$id" "$work/run.ids"; then
		echo "FAIL $id: EXPERIMENTS.md has a block for a table the run no longer prints"
		failed=1
	fi
done <"$work/doc.ids"
if [ "$failed" = 0 ]; then
	echo "ok   $n tables match EXPERIMENTS.md"
fi

sed -n '/^shape check/,$p' "$work/run.out"
if [ "$status" != 0 ]; then
	echo "FAIL rippleexp exited $status (a claim was violated or the run failed)"
	failed=1
fi
exit "$failed"
