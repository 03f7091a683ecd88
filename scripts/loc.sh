#!/bin/sh
# loc: the line counts ROADMAP.md tracks, by the method it uses — plain
# `wc -l` (comments and blanks included) over the root module's non-test Go
# (and internal/vm's share of it, with the test oracle that used to be part
# of that share beside it), its tests, and the benchmark module. The tests
# include internal/identity, the identity gates' shared half: only _test.go
# files may import it, which the ratchet checks. Beside the lines it prints the
# settable-value census: the exported fields of the root module's non-test
# `type …Config struct` and `type …Options struct` declarations (a field list
# `A, B T` counts two; embedded fields count none).
# With numbers as arguments it is the ratchet (`make loc-check`): exit 1 when
# the root module's non-test count is above the first, its test count above
# the second, or the census above the third. Without arguments it also runs `go test ./...` once, uncached,
# and prints its wall time (the ratchet leaves that out: `make check` runs the
# suite already).
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
knobs=$(find . -name '*.go' -not -path './benchmark/*' -not -path './internal/identity/*' -not -name '*_test.go' -print0 |
	xargs -0 awk '
		/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { depth = 1; next }
		depth > 0 {
			line = $0
			sub(/\/\/.*/, "", line)
			if (depth == 1) {
				n = split(line, w, /[ \t]+/)
				for (i = (w[1] == "" ? 2 : 1); i < n; i++) {
					name = w[i]
					comma = sub(/,$/, "", name)
					if (name ~ /^[A-Z]/) knobs++
					if (!comma) break
				}
			}
			depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
		}
		END { print knobs + 0 }')
echo "settable values (exported *Config/*Options fields): $knobs"
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
if [ $# -gt 2 ] && [ "$knobs" -gt "$3" ]; then
	echo "loc-check: $knobs settable values, ceiling $3: a new setting needs a caller that sets it and no second home (or lower KNOB_MAX in the Makefile when you remove more)" >&2
	status=1
fi
if [ $# -eq 0 ]; then
	start=$(date +%s)
	if out=$(go test -count=1 ./... 2>&1); then verdict=ok; else verdict=FAILED status=1; fi
	echo "go test ./... wall:    $(($(date +%s) - start)) s ($verdict)"
	[ "$verdict" = ok ] || echo "$out" >&2
fi
exit $status
