#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload, as bench/README.md
# ("Comparing two versions") prescribes: both sides run this tree's bench/
# code, so only the system under it differs.
#
#   scripts/bench-pair.sh <parent-rev> [workload] [pairs]
#   make bench-pair PARENT=<rev> WORKLOAD=steady PAIRS=10
#
# It exports <parent-rev> into a temp directory, replaces its bench/ with this
# tree's, builds both binaries, and runs pair i on seed i for bench's own run
# length, the parent first on odd pairs and the change first on even ones. It
# prints each pair's values of the five end-to-end metrics and, per metric,
# the change's wins, both medians, the relative shift and the parent's
# interquartile range. A gain holds when the change wins at least nine pairs
# in ten and the median shift exceeds the parent's IQR. Exit status is
# non-zero if any run failed its audit.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
	echo "usage: $0 <parent-rev> [workload=steady] [pairs=10]" >&2
	exit 2
fi
parent=$1 workload=${2:-steady} pairs=${3:-10}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
rm -rf "$tmp/parent/bench"
cp -r "$root/bench" "$tmp/parent/bench"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./bench)
(cd "$root" && go build -o "$tmp/bench-change" ./bench)
echo "parent $(git -C "$root" rev-parse --short "$parent") vs this tree; $workload, $pairs pairs" >&2

metrics=(ops_per_s p50_ms p99_ms cpu_ms_per_op setup_s)
results="$tmp/results.tsv" # side seed correct metric...
bad=0

# run <side> <seed>: one untraced run, its JSON line reduced to a TSV row.
run() {
	local side=$1 seed=$2 line row m v
	line=$("$tmp/bench-$side" -workload "$workload" -seed "$seed" -trace 0 \
		-out "$tmp/out-$side" 2>>"$tmp/$side.log" | tail -n 1) || bad=1
	row="$side	$seed	$(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' <<<"$line")"
	for m in "${metrics[@]}"; do
		v=$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")
		row+="	${v:-nan}"
	done
	echo "$row" >>"$results"
	echo "  $side seed $seed: $line" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

awk -F'\t' -v names="${metrics[*]}" -v pairs="$pairs" '
function q(a, n, k,    pos, j, f) { # k-th quartile cut, exclusive method
	if (n == 1) return a[1]
	pos = k * (n + 1) / 4; j = int(pos)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	f = pos - j
	return a[j] + f * (a[j + 1] - a[j])
}
function sorted(src, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
		t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
	}
}
BEGIN { nm = split(names, name, " ") }
{
	side = $1; seed[side, ++n[side]] = $2
	if ($3 != "true") fails++
	for (m = 1; m <= nm; m++) val[side, m, n[side]] = $(m + 3)
}
END {
	printf "each cell: parent → change\n%-6s", "seed"
	for (m = 1; m <= nm; m++) printf " %25s", name[m]
	printf "\n"
	for (i = 1; i <= pairs; i++) {
		printf "%-6s", seed["parent", i]
		for (m = 1; m <= nm; m++) printf " %12.4g → %10.4g", val["parent", m, i], val["change", m, i]
		printf "\n"
	}
	printf "\n%-14s %6s %12s %12s %9s %12s  %s\n", "metric", "wins", "parent med", "change med", "shift", "parent IQR", "gain holds"
	for (m = 1; m <= nm; m++) {
		higher = (name[m] == "ops_per_s")
		wins = 0
		for (i = 1; i <= pairs; i++) {
			p = val["parent", m, i]; c = val["change", m, i]
			if ((higher && c > p) || (!higher && c < p)) wins++
			pv[i] = p; cv[i] = c
		}
		delete ps; delete cs
		sorted(pv, pairs, ps); sorted(cv, pairs, cs)
		pm = q(ps, pairs, 2); cm = q(cs, pairs, 2); iqr = q(ps, pairs, 3) - q(ps, pairs, 1)
		shift = cm - pm
		holds = (wins >= 0.9 * pairs && (higher ? shift : -shift) > iqr) ? "yes" : "no"
		printf "%-14s %3d/%-2d %12.4g %12.4g %+8.1f%% %12.4g  %s\n", name[m], wins, pairs, pm, cm, (pm ? 100 * shift / pm : 0), iqr, holds
	}
	if (fails) printf "\n%d run(s) were not correct\n", fails
}' "$results"

exit "$bad"
