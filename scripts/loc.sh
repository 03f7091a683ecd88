#!/bin/sh
# loc: the line counts ROADMAP.md tracks, by the method it uses — plain
# `wc -l` (comments and blanks included) over the root module's non-test Go
# (and internal/vm's share of it, with the test oracle that used to be part
# of that share beside it), its tests, and the benchmark module.
# With a number as argument it is the ratchet (`make loc-check`): exit 1 when
# the root module's non-test count is above it.
set -eu
cd "$(dirname "$0")/.."
count() { dir=$1 && shift && find "$dir" -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }
nontest=$(count . -not -path './benchmark/*' -not -name '*_test.go')
echo "root module, non-test: $nontest"
echo "  of which internal/vm: $(count internal/vm -not -name '*_test.go')"
echo "    beside it, internal/vm/oracle_test.go (the reference loop; moved out of the product, not removed): $(wc -l < internal/vm/oracle_test.go)"
echo "root module, tests:    $(count . -not -path './benchmark/*' -name '*_test.go')"
echo "benchmark/:            $(count . -path './benchmark/*')"
if [ $# -gt 0 ] && [ "$nontest" -gt "$1" ]; then
	echo "loc-check: $nontest non-test lines, ceiling $1: remove as much as you add (or lower LOC_MAX in the Makefile when you remove more)" >&2
	exit 1
fi
