#!/usr/bin/env bash
# Paired A/B runs of one ntrbench workload: parent against change.
#
#   scripts/abrun.sh [-n PAIRS] [-w WORKLOAD] [-s SECONDS] [-e SEED] [-t THREADS] [-r] A B
#   scripts/abrun.sh -E REV [-n PAIRS] [-w WORKLOAD] [-s SECONDS] [-e SEED] [-r] A B
#
# A and B are git revisions; `.` stands for the working tree (tracked and
# untracked files that .gitignore does not exclude). Each side is exported
# in turn to the same directory, $ABRUN_DIR (default ${TMPDIR:-/tmp}/ntr-abrun),
# and ntrbench is built there, so both binaries come from one absolute path
# and differ only in the source. Both binaries are kept under $ABRUN_DIR/bin.
#
# Then PAIRS pairs run one after the other, each pair running both sides
# back to back; odd pairs run A first, even pairs B first. Every run's
# end-to-end metrics are printed, then one Markdown row per metric: every
# value of each side, the paired ratios B/A, and each side's median with its
# quartiles, then how many pairs favoured B and the median paired ratio
# with a distribution-free interval from the ratios' order statistics: the
# narrowest [r(k), r(n+1-k)] that holds the true median ratio with at least
# 90 % confidence (sign-test binomial; the achieved level is printed, and
# below 6 pairs the widest interval, [min, max], reaches less). A ratio
# above 1 is a gain for `throughput` and a loss for the latencies and
# `setup_s`.
# THREADS, when given, is exported as NTR_THREADS to every run. -r reuses
# the two binaries a previous call built instead of building them again.
#
# Settings mode (-E REV): one binary, built from REV as above, runs under two
# environment settings; A and B are then space-separated VAR=value lists,
# e.g. `-E HEAD NTR_THREADS=1 NTR_THREADS=2`, paired and alternated the same
# way. With -r it reuses the A binary of the previous call.
#
# Nothing in the repository is written: not BENCHMARK.json, not the
# benchmark's own directory. Exit code 1 when a run fails a check.
set -euo pipefail

pairs=5 workload=train_mlm seconds=16 seed=17 threads= reuse= rev=
while getopts "n:w:s:e:t:rE:" opt; do
    case $opt in
        n) pairs=$OPTARG ;;
        w) workload=$OPTARG ;;
        s) seconds=$OPTARG ;;
        e) seed=$OPTARG ;;
        t) threads=$OPTARG ;;
        r) reuse=1 ;;
        E) rev=$OPTARG ;;
        *) sed -n '2,5p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || { sed -n '2,5p' "$0" >&2; exit 2; }

repo=$(git rev-parse --show-toplevel)
dir=${ABRUN_DIR:-${TMPDIR:-/tmp}/ntr-abrun}
manifest=crates/bench/src/bin/ntrbench/Cargo.toml
mkdir -p "$dir/bin" "$dir/out"

# Exports revision $1 to $dir/src (file times set to now, so cargo rebuilds
# what changed since the other side) and builds ntrbench into bin/$2.
build() {
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    if [ "$1" = . ]; then
        (cd "$repo" && git ls-files -z --cached --others --exclude-standard |
            xargs -0 tar -cf - --no-recursion) | tar -xmf - -C "$dir/src"
    else
        git -C "$repo" archive "$1" | tar -xmf - -C "$dir/src"
    fi
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/target" \
        cargo build --release --offline --quiet --manifest-path "$manifest")
    cp "$dir/target/release/ntrbench" "$dir/bin/$2"
    echo "built $2 from $1" >&2
}
A=$1 B=$2
if [ -n "$rev" ]; then
    [ -n "$reuse" ] || build "$rev" A
elif [ -z "$reuse" ]; then
    build "$1" A
    build "$2" B
fi

# run SIDE PAIR: one run, its output kept in out/SIDE-PAIR.txt.
status=0
run() {
    local out="$dir/out/$1-$2.txt" bin=$1 settings=
    if [ -n "$rev" ]; then
        bin=A
        if [ "$1" = A ]; then settings=$A; else settings=$B; fi
    fi
    # shellcheck disable=SC2086 # a setting list splits into VAR=value words
    if ! env ${threads:+NTR_THREADS=$threads} $settings "$dir/bin/$bin" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" >"$out"; then
        echo "run $1 of pair $2 failed a check: see $out" >&2
        status=1
    fi
    awk -v side="$1" -v pair="$2" '
        /^metric / { m = m sprintf(" %s=%s", $2, $3) }
        /^counter tasks.final_loss / { m = m sprintf(" final_loss=%s", $3) }
        /^count / { m = m sprintf(" failed=%s", $5) }
        END { printf "pair %s %s:%s\n", pair, side, m }' "$out"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then run A "$i"; run B "$i"; else run B "$i"; run A "$i"; fi
done

echo
echo "$workload, $pairs pairs, seed $seed, ${threads:-default} threads; A = $1, B = $2${rev:+, one binary from $rev}"
echo
echo "| metric | A | B | paired ratios B/A | median [quartiles] A → B | B better | median ratio [interval] level |"
echo "| --- | --- | --- | --- | --- | --- | --- |"
for metric in setup_s throughput p50_ms p95_ms; do
    for i in $(seq 1 "$pairs"); do
        for side in A B; do
            awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }' "$dir/out/$side-$i.txt"
        done | paste -sd' '
    done | awk -v m="$metric" '
        # s[1..n]: v[1..n] sorted ascending.
        function sorted(v, n, s,    i, j, t) {
            for (i = 1; i <= n; i++) s[i] = v[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        }
        # The p-quantile of v[1..n], interpolated between order statistics.
        function quantile(v, n, p,    i, s, h) {
            sorted(v, n, s)
            h = 1 + (n - 1) * p; i = int(h)
            return i < n ? s[i] + (h - i) * (s[i + 1] - s[i]) : s[n]
        }
        # P(X <= k) for X ~ Binomial(n, 1/2).
        function below(k, n,    i, c, t) {
            c = 1; t = 0
            for (i = 0; i <= k; i++) { t += c; c = c * (n - i) / (i + 1) }
            return t / 2 ^ n
        }
        # The median of the ratios r[1..n] and its order-statistic interval.
        function interval(r, n,    s, k) {
            sorted(r, n, s)
            for (k = 1; k + 1 <= n + 1 - (k + 1) && 1 - 2 * below(k, n) >= 0.9; k++) {}
            return sprintf("%.3f [%.3f, %.3f] %.0f%%", quantile(r, n, 0.5), s[k], s[n + 1 - k],
                100 * (1 - 2 * below(k - 1, n)))
        }
        function summary(v, n) {
            return sprintf("%.5g [%.5g, %.5g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
        }
        NF == 2 {
            n++; a[n] = $1; b[n] = $2; r[n] = $1 == 0 ? 0 : $2 / $1
            as = as sprintf(" %.5g", $1); bs = bs sprintf(" %.5g", $2)
            rs = rs sprintf(" %.2f", r[n])
            won += m == "throughput" ? $2 > $1 : $2 < $1
        }
        END {
            if (!n) exit
            ma = quantile(a, n, 0.5); mb = quantile(b, n, 0.5)
            printf "| %s |%s |%s |%s | %s → %s (%.2f×) | %d/%d | %s |\n", m, as, bs, rs,
                summary(a, n), summary(b, n), ma == 0 ? 0 : mb / ma, won, n, interval(r, n)
        }'
done
exit $status
