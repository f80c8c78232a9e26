#!/usr/bin/env bash
# judge.sh — rehearse a before/after benchmark comparison against a
# parent revision:
#
#	scripts/judge.sh PARENT [PAIRS]      # or: make judge PARENT=<rev> [PAIRS=n]
#
# The change is the working tree; PARENT is any git revision, checked out
# detached in a shared `git clone` under a temporary directory that is
# removed on exit, so the judge writes nothing into the repository's
# .git. Each of PAIRS pairs (default 10) runs every workload in
# BENCHMARK.json once per side, both sides with the same random seed,
# the side that goes first alternating from pair to pair:
#
#	go run -C <tree>/benchmark moc/benchmark -workload W -seed S -out <tmp>
#
# The first run whose contract line is not correct=true with failed=0
# stops the rehearsal, names its side, and shows that run's notes; with
# KEEP_GOING=1 the rehearsal instead counts such runs per side, leaves
# their pairs out of the medians, and goes on. At the end the script prints, per
# workload and end-to-end metric, the parent's and the change's medians,
# the change's median gap, how many pairs the change won, the parent's
# interquartile range, and a verdict: "better" when the change won at
# least 9 pairs in 10 and its median beats the parent's by more than the
# parent's IQR, "worse" when its median is worse by more than the
# metric's bound in BENCHMARK.json, "-" otherwise.
#
# Run length is the benchmark's own default, the same on both sides.
# Environment: KEEP_GOING=1 counts incorrect runs instead of stopping at
# the first.
set -euo pipefail

pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
# Resolve here: a name like HEAD~1 means this repository's history.
parent=$(git -C "$root" rev-parse --verify "${1:?usage: scripts/judge.sh PARENT [PAIRS]}^{commit}")
bench=$root/BENCHMARK.json

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git clone --quiet --shared --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout --quiet --detach "$parent"
mkdir -p "$tmp/out"

workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$bench")
# One end-to-end metric a line: name, better (higher|lower), bound.
metrics=$(sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' "$bench")

# run SIDE TREE WORKLOAD PAIR SEED: one timed run; its end-to-end
# metrics go to $tmp/results as "workload metric side pair value".
run() {
	local side=$1 tree=$2 w=$3 pair=$4 seed=$5 log line m v
	log=$tmp/out/$side-$w-$pair
	line=$(go run -C "$tree/benchmark" moc/benchmark -workload "$w" -seed "$seed" \
		-out "$log.d" 2>&1 | tee "$log.log" | tail -n 1) || true
	case $line in
	*'"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "judge: the $side run of $w (pair $pair, seed $seed) is not correct=true with failed=0" >&2
		grep -e ' note: ' -e 'correct=' "$log.log" >&2 || tail -n 20 "$log.log" >&2
		[ -n "${KEEP_GOING:-}" ] || exit 1
		echo "$w $side" >>"$tmp/red"
		return
		;;
	esac
	while read -r m _; do
		v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
		if [ -n "$v" ]; then
			echo "$w $m $side $pair $v" >>"$tmp/results"
		fi
	done <<<"$metrics"
}

for ((i = 1; i <= pairs; i++)); do
	seed=$(((RANDOM << 15 | RANDOM) + 1))
	for w in $workloads; do
		if ((i % 2)); then
			run parent "$tmp/parent" "$w" "$i" "$seed"
			run change "$root" "$w" "$i" "$seed"
		else
			run change "$root" "$w" "$i" "$seed"
			run parent "$tmp/parent" "$w" "$i" "$seed"
		fi
		echo "judge: pair $i/$pairs $w done" >&2
	done
done

if [ -s "$tmp/red" ]; then
	echo "runs not correct=true with failed=0 (workload side count):"
	sort "$tmp/red" | uniq -c | awk '{ print "  " $2, $3, $1 }'
fi

printf '%-20s %-14s %12s %12s %8s %7s %11s  %s\n' workload metric parent change gap wins parent_iqr verdict
for w in $workloads; do
	while read -r m better bound; do
		awk -v w="$w" -v m="$m" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
			function sortv(a, k,   i, j, t) {
				for (i = 2; i <= k; i++) {
					t = a[i]
					for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
					a[j + 1] = t
				}
			}
			function quantile(a, k, p,   h, lo) {
				h = (k - 1) * p + 1
				lo = int(h)
				return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
			}
			$1 == w && $2 == m { val[$3, $4] = $5 }
			END {
				for (i = 1; i <= pairs; i++) {
					if (!(("parent", i) in val) || !(("change", i) in val)) continue
					p = val["parent", i]; c = val["change", i]
					P[++k] = p; C[k] = c
					if ((better == "higher" && c > p) || (better == "lower" && c < p)) wins++
				}
				if (k == 0) exit
				sortv(P, k); sortv(C, k)
				pm = quantile(P, k, 0.5); cm = quantile(C, k, 0.5)
				iqr = quantile(P, k, 0.75) - quantile(P, k, 0.25)
				gap = pm != 0 ? (cm - pm) / pm : 0
				worse = better == "higher" ? -gap : gap
				verdict = "-"
				if (wins * 10 >= 9 * k && worse < 0 && (cm - pm > iqr || pm - cm > iqr)) verdict = "better"
				else if (worse > bound) verdict = "worse"
				printf "%-20s %-14s %12.6g %12.6g %+7.1f%% %3d/%-3d %11.4g  %s\n", w, m, pm, cm, 100 * gap, wins, k, iqr, verdict
			}' "$tmp/results"
	done <<<"$metrics"
done
