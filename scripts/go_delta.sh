#!/bin/sh
# go_delta.sh prints the net Go line delta of the working tree against a
# base commit, split into non-test and _test.go files, in the form
# CHANGES.md records it:
#
#	non-test +A/−D (net), test +A/−D (net)
#
# It counts `git diff --numstat BASE` (staged and unstaged changes alike)
# plus every untracked, non-ignored .go file, so it also measures work
# that is not committed yet.
#
#	scripts/go_delta.sh [BASE]    # BASE defaults to HEAD
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD}"

{
	git diff --numstat --no-renames "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while IFS= read -r f; do
		printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} | awk -F '\t' '
function net(a, d) { return a >= d ? "+" (a - d) : "−" (d - a) }
$3 ~ /_test\.go$/ { ta += $1; td += $2; next }
{ na += $1; nd += $2 }
END {
	printf "non-test +%d/−%d (%s), test +%d/−%d (%s)\n", na, nd, net(na, nd), ta, td, net(ta, td)
}'
