#!/bin/sh
# abpairs: alternating A/B runs of one workload of the benchmark spine — a
# committed revision (A) against the working tree (B), or against a second
# committed revision BREV.
#
#   scripts/abpairs.sh REV WORKLOAD [SEED [N [BREV]]]
#   make ab REV=HEAD WORKLOAD=db-lock SEED=1 N=10
#   make aa REV=HEAD WORKLOAD=fleet-kill SEED=1 N=10   (BREV = REV)
#
# Both spines are built once, with -trimpath -buildvcs=false so that a
# binary depends on its source alone: A from `git archive REV` unpacked into
# a temporary directory, B from `git archive BREV` likewise when BREV is
# given, else from the working tree as it stands, uncommitted edits included.
# When B's tree is REV's tree (an A/A run: BREV names REV's tree, or the
# working tree is REV's), the two binaries must be byte-identical, or the
# script refuses to start; `make aa` is such a run that a dirty working tree
# cannot disturb. Then N
# pairs run, each side `-seed SEED -seconds 20 -trace 0` from the same
# working directory. Which side goes first in each pair is a shuffle (as many
# A-first pairs as B-first, one more A-first when N is odd) drawn from an
# order seed that is printed and kept in $OUT/order-seed, so a drift of the
# host cannot favour one side. Every run's JSON line is kept in $OUT
# (default: a fresh temporary directory) as a-<i>.json and b-<i>.json. At the
# end, per end-to-end metric of BENCHMARK.json: each side's median and
# quartiles, and a paired test on the per-pair log ratios ln(b/a). A
# difference below a metric's resolution is a tie with log ratio 0 (alloc_mb:
# 0.1 %; identical builds differ by a few hundred bytes). The change is the
# Hodges-Lehmann estimate (the median of the Walsh averages of the log
# ratios), with its distribution-free 95 % interval cut from the sorted Walsh
# averages at the exact Wilcoxon signed-rank critical value; then in how many
# pairs B was better and how many tied, the exact two-sided sign-test p-value
# over the untied pairs, and "resolved" when the interval excludes zero
# ("unresolved" otherwise, and always below 6 pairs, too few for a 95 %
# interval). Nothing under benchmark/ is written.
set -eu
[ $# -ge 2 ] || { echo "usage: $0 REV WORKLOAD [SEED [N [BREV]]]" >&2; exit 2; }
rev=$1 workload=$2 seed=${3:-1} n=${4:-10} brev=${5:-}
root=$(cd "$(dirname "$0")/.." && pwd)
out=${OUT:-$(mktemp -d)}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$out" "$work/a" "$work/b"
git -C "$root" archive "$rev" | tar -x -C "$work/a"
go build -C "$work/a/benchmark" -trimpath -buildvcs=false -o "$work/spine-a" .
if [ -n "$brev" ]; then
	git -C "$root" archive "$brev" | tar -x -C "$work/b"
	bsrc=$work/b bname=$brev
	[ "$(git -C "$root" rev-parse "$brev^{tree}")" = "$(git -C "$root" rev-parse "$rev^{tree}")" ] && same=1 || same=0
else
	bsrc=$root bname="working tree"
	git -C "$root" diff --quiet "$rev" -- && [ -z "$(git -C "$root" ls-files --others --exclude-standard)" ] && same=1 || same=0
fi
go build -C "$bsrc/benchmark" -trimpath -buildvcs=false -o "$work/spine-b" .
if [ "$same" = 1 ] && ! cmp -s "$work/spine-a" "$work/spine-b"; then
	echo "abpairs: B ($bname) is $rev's tree, but the two spines built differ; refusing an A/A run" >&2
	exit 1
fi
order_seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "$order_seed" >"$out/order-seed"
order=$(python3 -c 'import random, sys
n = int(sys.argv[2])
first = list("a" * ((n + 1) // 2) + "b" * (n // 2))
random.Random(int(sys.argv[1])).shuffle(first)
print("".join(first))' "$order_seed" "$n")

# run SIDE I: one run of side a or b, its JSON line kept as SIDE-I.json.
run() {
	if ! (cd "$work" && "$work/spine-$1" -workload "$workload" -seed "$seed" -seconds 20 -trace 0) >"$work/log" 2>&1; then
		cat "$work/log" >&2
		echo "abpairs: side $1, pair $2 failed" >&2
		exit 1
	fi
	tail -n 1 "$work/log" >"$out/$1-$2.json"
}

i=1
while [ "$i" -le "$n" ]; do
	if [ "$(printf %s "$order" | cut -c "$i")" = a ]; then run a "$i" && run b "$i"; else run b "$i" && run a "$i"; fi
	echo "abpairs: pair $i of $n done" >&2
	i=$((i + 1))
done

echo "$workload seed $seed, $n pairs, first sides $order (order seed $order_seed); A = $rev, B = $bname; JSON lines in $out"
python3 - "$root/BENCHMARK.json" "$out" "$n" <<'EOF'
import json, math, statistics, sys

spec, out, n = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
runs = {s: [json.load(open(f"{out}/{s}-{i}.json")) for i in range(1, n + 1)] for s in "ab"}
# A relative difference below a metric's resolution is a tie, not a win.
resolution = {"alloc_mb": 0.001}

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3

def cell(q1, med, q3):
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

def signed_rank_k(m, alpha=0.05):
    """The largest k with P(T <= k - 1) <= alpha / 2, T being the Wilcoxon
    signed-rank statistic of m pairs under the null (exact: every subset of
    the ranks 1..m is equally likely); 0 when no k qualifies."""
    ways = [1] + [0] * (m * (m + 1) // 2)
    for r in range(1, m + 1):
        for t in range(len(ways) - 1, r - 1, -1):
            ways[t] += ways[t - r]
    k, below = 0, 0
    while below + ways[k] <= alpha / 2 * 2**m:
        below += ways[k]
        k += 1
    return k

def sign_p(wins, losses):
    """Exact two-sided sign-test p-value over the untied pairs."""
    m = wins + losses
    if m == 0:
        return 1.0
    tail = sum(math.comb(m, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**m)

k = signed_rank_k(n)
pct = lambda d: f"{100 * math.expm1(d):+.1f}%"
print(f"ops_failed: A {sum(r['failed'] for r in runs['a'])}, B {sum(r['failed'] for r in runs['b'])}")
print(f"{'metric':<10} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} {'change':>7}  {'95% interval':<17} B better  ties  sign p  verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in runs["a"]]
    b = [r["metrics"][name]["value"] for r in runs["b"]]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    tied = [abs(y - x) <= resolution.get(name, 0) * abs(x) for x, y in zip(a, b)]
    d = [0.0 if tie else math.log(y / x) for x, y, tie in zip(a, b, tied)]
    wins = sum(1 for v, tie in zip(d, tied) if not tie and (v < 0 if lower else v > 0))
    losses = n - sum(tied) - wins
    walsh = sorted((d[i] + d[j]) / 2 for i in range(n) for j in range(i, n))
    hl = statistics.median(walsh)
    if k:
        lo, hi = walsh[k - 1], walsh[-k]
        interval, verdict = f"[{pct(lo)}, {pct(hi)}]", "resolved" if lo > 0 or hi < 0 else "unresolved"
    else:
        interval, verdict = "n/a", "unresolved"
    print(f"{name:<10} {cell(a1, am, a3):<30} {cell(b1, bm, b3):<30} {pct(hl):>7}  {interval:<17} {wins:>3} / {n:<3} {sum(tied):>4}  {sign_p(wins, losses):6.4f}  {verdict}")
EOF
