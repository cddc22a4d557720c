#!/usr/bin/env bash
# benchpair.sh — compare two commits on one benchmark workload, in pairs.
#
# Usage: scripts/benchpair.sh PARENT CHANGE --workload W --seed S --pairs N [--aa] [--out FILE]
#
# Each commit is extracted (git archive) under .bench_build/pair/<commit>
# and its harness (bench/) is built once. Then N pairs run: each pair runs
# both sides once at the harness's default length, and the side that
# runs first alternates from pair to pair, so drift in the host's speed
# falls on both sides alike. --aa runs PARENT against itself (CHANGE is
# only recorded): the noise floor, which must not read "significant".
#
# For each end-to-end metric (records_per_s, higher is better; setup_s,
# lower is better) it prints the per-pair values, the change/parent
# ratio's median [p25–p75], the wins k/N (pairs where CHANGE is better;
# a tie counts for neither side)
# and a verdict, after SNIPPETS.md's Type-2 standard read over pairs:
#   significant  one side wins at least 9 pairs in 10, and the medians of
#                the two sides differ by more than the p25–p75 spread of
#                the parent's values;
#   equivalent   the ratio's p25–p75 lies within [0.95, 1.05];
#   unresolved   anything else, and any run of fewer than 10 pairs.
# --out FILE writes the same summary as JSON (by convention
# BENCH_<workload>.json), with the host facts the harness reports (nproc,
# GOMAXPROCS, Go version) and both commits.
#
# Needs bash, awk, git and the local Go toolchain. A run that reports
# "correct":false or failed operations stops the script with exit 1.

set -euo pipefail

usage() {
	echo "usage: $0 PARENT CHANGE --workload W --seed S --pairs N [--aa] [--out FILE]" >&2
	exit 2
}

[ $# -ge 2 ] || usage
parent_ref=$1 change_ref=$2
shift 2
workload="" seed="" pairs="" aa=0 out=""
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=${2:-}; shift 2 || usage ;;
	--seed) seed=${2:-}; shift 2 || usage ;;
	--pairs) pairs=${2:-}; shift 2 || usage ;;
	--aa) aa=1; shift ;;
	--out) out=${2:-}; shift 2 || usage ;;
	*) usage ;;
	esac
done
[ -n "$workload" ] && [ -n "$seed" ] && [ -n "$pairs" ] || usage
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $out in '' | /*) ;; *) out="$PWD/$out" ;; esac

cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$parent_ref^{commit}")
change=$(git rev-parse --verify "$change_ref^{commit}")
[ "$aa" = 1 ] && change_run=$parent || change_run=$change

base="$PWD/.bench_build/pair"
mkdir -p "$base/config/go/telemetry" "$base/tmp"
echo off > "$base/config/go/telemetry/mode"

# build COMMIT: extract the commit once and build its harness once.
build() {
	local dir="$base/$1"
	if [ ! -x "$dir/elephant-bench" ]; then
		rm -rf "$dir"
		mkdir -p "$dir"
		git archive "$1" | tar -x -C "$dir"
		XDG_CONFIG_HOME="$base/config" GOCACHE="$base/gocache" GOMODCACHE="$base/gomod" GOTMPDIR="$base/tmp" \
			GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
			go build -C "$dir/bench" -buildvcs=false -o "$dir/elephant-bench" .
	fi
}
build "$parent"
build "$change_run"

results=$(mktemp)
trap 'rm -f "$results" "$results.out" "$results.err"' EXIT

# run SIDE COMMIT PAIR: one harness run, appended to $results as
# "pair side records_per_s setup_s".
run() {
	local line
	(cd "$base/$2" && ./elephant-bench --workload "$workload" --seed "$seed") > "$results.out" 2> "$results.err"
	line=$(grep '^{' "$results.out" | tail -1)
	case $line in
	*'"correct":true'*'"failed":0'*) ;;
	*)
		echo "benchpair: $1 ($2) run failed or was incorrect: $line" >&2
		cat "$results.err" >&2
		exit 1
		;;
	esac
	host=$(grep -m1 '^bench: nproc=' "$results.err" || true)
	echo "$3 $1 $(echo "$line" | sed -E 's/.*"records_per_s":\{"value":([^,}]*).*"setup_s":\{"value":([^,}]*).*/\1 \2/')" >> "$results"
	rm -f "$results.out"
}

host=""
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$change_run" "$i"
	else
		run change "$change_run" "$i"
		run parent "$parent" "$i"
	fi
done

# host: "bench: nproc=2 GOMAXPROCS=2 go=go1.24.0 ..."
nproc_v=$(echo "$host" | sed -nE 's/.*nproc=([0-9]+).*/\1/p')
gmp_v=$(echo "$host" | sed -nE 's/.*GOMAXPROCS=([0-9]+).*/\1/p')
go_v=$(echo "$host" | sed -nE 's/.*go=([^ ]+).*/\1/p')

awk -v workload="$workload" -v seed="$seed" -v n="$pairs" -v aa="$aa" -v out="$out" \
	-v parent="$parent" -v change="$change" -v nproc="$nproc_v" -v gmp="$gmp_v" -v gover="$go_v" '
function sortn(a, k,   i, j, t) {
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q-quantile of the sorted a[1..k], linearly interpolated.
function quant(a, k, q,   h, l) {
	h = (k - 1) * q + 1
	l = int(h)
	return l >= k ? a[k] : a[l] + (h - l) * (a[l + 1] - a[l])
}
{ v[$2, 1, $1] = $3; v[$2, 2, $1] = $4 }
END {
	name[1] = "records_per_s"; better[1] = "higher"
	name[2] = "setup_s"; better[2] = "lower"
	printf "%s seed %s, %d pairs%s\n", workload, seed, n, aa ? " (A/A: parent against itself)" : ""
	printf "%-5s %15s %15s %8s %10s %10s %8s\n", "pair", "parent rec/s", "change rec/s", "ratio", "parent su", "change su", "ratio"
	for (i = 1; i <= n; i++)
		printf "%-5d %15.0f %15.0f %8.4f %10.4f %10.4f %8.4f\n", i, v["parent", 1, i], v["change", 1, i], \
			v["change", 1, i] / v["parent", 1, i], v["parent", 2, i], v["change", 2, i], v["change", 2, i] / v["parent", 2, i]
	json = ""
	for (m = 1; m <= 2; m++) {
		wins = 0; losses = 0
		plist = ""; clist = ""
		for (i = 1; i <= n; i++) {
			p[i] = v["parent", m, i]; c[i] = v["change", m, i]; r[i] = c[i] / p[i]
			if (c[i] != p[i] && ((better[m] == "higher") == (c[i] > p[i]))) wins++
			else if (c[i] != p[i]) losses++
			plist = plist (i > 1 ? "," : "") p[i]
			clist = clist (i > 1 ? "," : "") c[i]
		}
		sortn(p, n); sortn(c, n); sortn(r, n)
		pm = quant(p, n, 0.5); cm = quant(c, n, 0.5)
		rm = quant(r, n, 0.5); r25 = quant(r, n, 0.25); r75 = quant(r, n, 0.75)
		spread = quant(p, n, 0.75) - quant(p, n, 0.25)
		lead = wins > losses ? wins : losses # ties count for neither side
		if (n < 10) verdict = "unresolved"
		else if (10 * lead >= 9 * n && (cm - pm > spread || pm - cm > spread)) verdict = "significant"
		else if (r25 >= 0.95 && r75 <= 1.05) verdict = "equivalent"
		else verdict = "unresolved"
		printf "%-14s change/parent median %.4f [%.4f–%.4f]  wins %d/%d  (%s is better)  %s\n", \
			name[m], rm, r25, r75, wins, n, better[m], verdict
		json = json sprintf("%s\n    \"%s\": {\"better\": \"%s\", \"parent\": [%s], \"change\": [%s], \"ratio_median\": %.4f, \"ratio_p25\": %.4f, \"ratio_p75\": %.4f, \"wins\": %d, \"verdict\": \"%s\"}", \
			m > 1 ? "," : "", name[m], better[m], plist, clist, rm, r25, r75, wins, verdict)
	}
	if (out != "") {
		printf "{\n  \"workload\": \"%s\",\n  \"seed\": %s,\n  \"pairs\": %d,\n  \"aa\": %s,\n", workload, seed, n, (aa ? "true" : "false") > out
		printf "  \"parent\": \"%s\",\n  \"change\": \"%s\",\n", parent, change > out
		printf "  \"host\": {\"nproc\": %s, \"gomaxprocs\": %s, \"go\": \"%s\"},\n", nproc, gmp, gover > out
		printf "  \"metrics\": {%s\n  }\n}\n", json > out
	}
}' "$results"
