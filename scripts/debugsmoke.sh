#!/bin/sh
# debug-smoke: end-to-end determinism gate for the time-travel debugger.
#
# Captures a replication log from a deterministic simulation replay, drives
# the ftvm-debug REPL over it with a fixed command script — twice, and once
# under the other interpreter engine — and requires byte-identical output
# every time: the debugger's view of an execution is a pure function of the
# log. Then captures a second log under a different network seed and checks
# that -diff finds a first diverging branch position between two captures of
# genuinely different executions, that -diff of a log against itself reports
# identity, and that a capture of an older format version is refused by
# version.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

keyA='prog=7,size=small,mode=sched,kill=3,deliver=1,fault=none@0,net=3,reorder=1/8'
keyB='prog=8,size=small,mode=sched,kill=3,deliver=1,fault=none@0,net=3,reorder=1/8'

go run ./cmd/ftvm-sim -replay "$keyA" -capture "$tmp/a.ftlog" > /dev/null
go run ./cmd/ftvm-sim -replay "$keyB" -capture "$tmp/b.ftlog" > /dev/null

cat > "$tmp/script" <<'EOF'
pos
final
goto 0
state
goto 7
threads
locks
step 5
checksum
rstep 3
checksum
goto 40
heap
console
state
quit
EOF

go run ./cmd/ftvm-debug -every 16 "$tmp/a.ftlog" < "$tmp/script" > "$tmp/out1"
go run ./cmd/ftvm-debug -every 16 "$tmp/a.ftlog" < "$tmp/script" > "$tmp/out2"
if ! cmp -s "$tmp/out1" "$tmp/out2"; then
    echo "debug-smoke: two runs of the same script over the same log differ" >&2
    diff "$tmp/out1" "$tmp/out2" >&2 || true
    exit 1
fi

# A different checkpoint density must never change what the debugger shows.
go run ./cmd/ftvm-debug -every 64 "$tmp/a.ftlog" < "$tmp/script" > "$tmp/out3"
if ! cmp -s "$tmp/out1" "$tmp/out3"; then
    echo "debug-smoke: checkpoint interval changed the debugger's output" >&2
    diff "$tmp/out1" "$tmp/out3" >&2 || true
    exit 1
fi

# Dual-stream: stepping the unfused stream (-dispatch switch) replays the same
# log to the same states, so the whole transcript is byte-identical too.
go run ./cmd/ftvm-debug -every 16 -dispatch switch "$tmp/a.ftlog" < "$tmp/script" > "$tmp/out4"
if ! cmp -s "$tmp/out1" "$tmp/out4"; then
    echo "debug-smoke: switch-dispatch replay differs from threaded" >&2
    diff "$tmp/out1" "$tmp/out4" >&2 || true
    exit 1
fi

go run ./cmd/ftvm-debug -diff "$tmp/a.ftlog" "$tmp/a.ftlog" > "$tmp/self"
grep -q '^identical' "$tmp/self" || {
    echo "debug-smoke: self-diff did not report identity" >&2; cat "$tmp/self" >&2; exit 1; }

if go run ./cmd/ftvm-debug -diff "$tmp/a.ftlog" "$tmp/b.ftlog" > "$tmp/ab" 2>/dev/null; then
    echo "debug-smoke: -diff of diverging logs exited zero" >&2; cat "$tmp/ab" >&2; exit 1
fi
grep -q '^diverged at position' "$tmp/ab" || {
    echo "debug-smoke: -diff did not locate a diverging position" >&2; cat "$tmp/ab" >&2; exit 1; }

# A capture of the previous format version (same file, version byte 1) is
# refused by version, in the REPL and in -diff, with the decoder's own words.
{ printf 'FTLOG\001'; tail -c +7 "$tmp/a.ftlog"; } > "$tmp/old.ftlog"
want="ftvm-debug: $tmp/old.ftlog: unsupported ftlog format version: file is version 1, this build reads version 2; capture the log again"
for args in "$tmp/old.ftlog" "-diff $tmp/a.ftlog $tmp/old.ftlog"; do
    if go run ./cmd/ftvm-debug $args < /dev/null > /dev/null 2> "$tmp/olderr"; then
        echo "debug-smoke: a version-1 capture was accepted ($args)" >&2; exit 1
    fi
    grep -qxF "$want" "$tmp/olderr" || {
        echo "debug-smoke: version-1 capture not refused by version ($args)" >&2; cat "$tmp/olderr" >&2; exit 1; }
done

echo "debug-smoke: ok"
