#!/bin/sh
# loc: the line counts ROADMAP.md tracks, by the method it uses — plain
# `wc -l` (comments and blanks included) over the root module's non-test Go
# (and internal/vm's share of it, with the test oracle that used to be part
# of that share beside it), its tests, and the benchmark module. The tests
# include internal/identity, the identity gates' shared half: only _test.go
# files may import it, which the ratchet checks.
# With numbers as arguments it is the ratchet (`make loc-check`): exit 1 when
# the root module's non-test count is above the first, or its test count above
# the second.
set -eu
cd "$(dirname "$0")/.."
count() { dir=$1 && shift && find "$dir" -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }
nontest=$(count . -not -path './benchmark/*' -not -path './internal/identity/*' -not -name '*_test.go')
echo "root module, non-test: $nontest"
echo "  of which internal/vm: $(count internal/vm -not -name '*_test.go')"
echo "    beside it, internal/vm/oracle_test.go (the reference loop; moved out of the product, not removed): $(wc -l < internal/vm/oracle_test.go)"
tests=$(count . -not -path './benchmark/*' '(' -name '*_test.go' -o -path './internal/identity/*' ')')
echo "root module, tests:    $tests"
echo "benchmark/:            $(count . -path './benchmark/*')"
status=0
if [ $# -gt 0 ] && go list -f '{{join .Imports "\n"}}' ./... | grep -qx 'repro/internal/identity'; then
	echo "loc-check: a non-test package imports internal/identity, which is counted as test code" >&2
	status=1
fi
if [ $# -gt 0 ] && [ "$nontest" -gt "$1" ]; then
	echo "loc-check: $nontest non-test lines, ceiling $1: remove as much as you add (or lower LOC_MAX in the Makefile when you remove more)" >&2
	status=1
fi
if [ $# -gt 1 ] && [ "$tests" -gt "$2" ]; then
	echo "loc-check: $tests test lines, ceiling $2: remove as much as you add (or lower TEST_LOC_MAX in the Makefile when you remove more)" >&2
	status=1
fi
exit $status
