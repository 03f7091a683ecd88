#!/bin/sh
# clocklint: enforce the clock-injection rule (see DESIGN.md, "Deterministic
# simulation & the clock rule").
#
# Library code that runs inside the replicated machine must take its time from
# an injected clock.Clock, never from the wall directly — a naked time.Now or
# time.Sleep is invisible to the virtual clock and silently breaks the
# determinism the simulation harness depends on. Code that genuinely wants
# wall time (wall-clock metrics, real sockets) opts in explicitly by calling
# clock.Real.Now() etc., which reads as a decision instead of an accident and
# does not match this lint.
#
# Exempt: _test.go files (real-time tests are audited in DESIGN.md),
# internal/simtest/** (the clock implementation itself), main packages
# under cmd/** (CLIs report wall time to humans), and benchmark/** (its own
# module, a main package whose whole job is to time the library from outside).
set -eu
cd "$(dirname "$0")/.."

pattern='(^|[^.[:alnum:]_])time\.(Now|Sleep|After|AfterFunc|Since|Until|NewTimer|NewTicker|Tick)\('

files=$(find . -name '*.go' \
    ! -name '*_test.go' \
    ! -path './internal/simtest/*' \
    ! -path './cmd/*' \
    ! -path './benchmark/*' \
    -print | sort)

# Self-check: the clock-sensitive packages must be in the scan set. The
# failure detectors in replication (heartbeats, ack timeouts), viewsvc
# (ping-based membership), and consensus (randomized election timeouts,
# leader heartbeats), and the kill poller and election waits of the one
# replicated-run assembly in cluster, are exactly where a naked wall-clock
# call would break determinism — if a future exemption swallowed them, this
# lint would pass vacuously.
for must in ./internal/replication ./internal/viewsvc ./internal/consensus ./internal/debug ./internal/cluster; do
    case "$files" in
        *"$must/"*) ;;
        *) echo "clock-lint: $must is missing from the scan set" >&2; exit 1 ;;
    esac
done

bad=$(printf '%s\n' "$files" | xargs grep -nE "$pattern" 2>/dev/null || true)

if [ -n "$bad" ]; then
    echo "clock-lint: naked wall-clock calls in library code." >&2
    echo "Use the injected clock.Clock, or clock.Real.* for an explicit wall-time opt-in:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "clock-lint: ok"
