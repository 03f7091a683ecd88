#!/bin/sh
# loc: the three line counts ROADMAP.md tracks, by the method it uses — plain
# `wc -l` (comments and blanks included) over the root module's non-test Go,
# its tests, and the benchmark module.
set -eu
cd "$(dirname "$0")/.."
count() { find . -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }
echo "root module, non-test: $(count -not -path './benchmark/*' -not -name '*_test.go')"
echo "root module, tests:    $(count -not -path './benchmark/*' -name '*_test.go')"
echo "benchmark/:            $(count -path './benchmark/*')"
