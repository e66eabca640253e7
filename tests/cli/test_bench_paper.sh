#!/usr/bin/env bash
# bench_paper driver smoke: --list names every experiment, one cheap
# experiment runs to completion, and an unknown name or an invalid
# OMS_BENCH_* knob is a usage error.
# Usage: test_bench_paper.sh <path-to-bench_paper>
set -u

tool="$1"
failures=0

fail() {
  echo "FAIL [$1]"
  failures=$((failures + 1))
}

list="$("$tool" --list)" || fail "--list exits 0"
for name in fig2a fig2b fig2c fig2d fig2e fig2f fig3 table2 complexity memory \
            tuning-alpha tuning-base tuning-hybrid tuning-scorer \
            ablation-overshoot ablation-stream-order buffer-size \
            streaming-models twophase-mapping edgepart; do
  printf '%s\n' "$list" | grep -qE "^ *$name " || fail "--list names $name"
done

OMS_BENCH_SCALE=small OMS_BENCH_REPS=1 "$tool" complexity > /dev/null ||
  fail "complexity exits 0"

"$tool" nosuch > /dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "unknown experiment exits 2 (got $code)"

"$tool" > /dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "no experiment exits 2 (got $code)"

# Knobs are checked before any experiment runs (REPS=0 used to print NaN
# tables, an unparsable value used to become the default). complexity runs
# on one thread whatever OMS_BENCH_THREADS says, so even a broken check
# starts no extra thread here.
for knob in OMS_BENCH_REPS=0 OMS_BENCH_REPS=x OMS_BENCH_THREADS=-1 \
            OMS_BENCH_THREADS=1025 OMS_BENCH_SCALE=huge; do
  env "$knob" "$tool" complexity > /dev/null 2>&1
  code=$?
  [ "$code" -eq 2 ] || fail "$knob exits 2 (got $code)"
done

if [ "$failures" -ne 0 ]; then
  echo "$failures bench_paper check(s) failed"
  exit 1
fi
echo "all bench_paper checks passed"
