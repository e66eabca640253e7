#!/usr/bin/env bash
# Checkpoint kill/resume smoke for CI: on a generated graph, a partition_tool
# run killed by the deterministic post-snapshot crash fault must resume into
# a byte-identical partition, for the one-pass and buffered paths, with and
# without the --pipeline reader thread. Then a
# sweep of seeded fault schedules (OMS_FAULT_SEED) over the plain drivers
# and the in-memory route (whose read_metis goes through the same reader and
# fault sites) checks the chaos contract end to end: exit 0 with
# baseline-identical output, or exit 1 with a clean "error:" message — never
# anything else.
# Usage: checkpoint_smoke.sh <path-to-partition_tool>
set -u

tool="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

graph="$tmpdir/ring.graph"
awk 'BEGIN {
  n = 5000;
  printf "%d %d\n", n, n;
  for (i = 1; i <= n; i++) {
    l = i - 1; if (l < 1) l = n;
    r = i + 1; if (r > n) r = 1;
    printf "%d %d\n", l, r;
  }
}' > "$graph"

failures=0

kill_resume() {
  local name="$1"
  shift
  local base="$tmpdir/${name}_base.txt"
  local resumed="$tmpdir/${name}_resumed.txt"
  local ckpt="$tmpdir/${name}.ckpt"
  if ! "$tool" "$graph" --k 4 "$@" --from-disk --output "$base" > /dev/null; then
    echo "FAIL [$name]: baseline run failed"
    failures=$((failures + 1))
    return
  fi
  OMS_FAULTS=checkpoint.die@1 "$tool" "$graph" --k 4 "$@" \
    --checkpoint "$ckpt" --checkpoint-every 1024 > /dev/null 2>&1
  if [ $? -ne 1 ]; then
    echo "FAIL [$name]: injected crash did not exit 1"
    failures=$((failures + 1))
    return
  fi
  if ! "$tool" "$graph" --k 4 "$@" --resume "$ckpt" \
       --output "$resumed" > /dev/null; then
    echo "FAIL [$name]: resume run failed"
    failures=$((failures + 1))
    return
  fi
  if cmp -s "$base" "$resumed"; then
    echo "ok   [$name kill/resume bit-identical]"
  else
    echo "FAIL [$name]: resumed partition differs from baseline"
    failures=$((failures + 1))
  fi
}

kill_resume oms --algo oms
kill_resume fennel --algo fennel
kill_resume buffered_lp --algo buffered --buffer-size 512
kill_resume buffered_ml --algo buffered --buffered-engine multilevel \
  --buffer-size 512
kill_resume fennel_pipelined --algo fennel --pipeline
kill_resume buffered_pipelined --algo buffered --buffer-size 512 --pipeline

# Seeded chaos sweep over the plain drivers: clean failure or identical output.
chaos_sweep() {
  local name="$1"
  shift
  local golden="$tmpdir/${name}_golden.txt"
  if ! "$tool" "$graph" --k 4 "$@" --output "$golden" > /dev/null; then
    echo "FAIL [$name]: fault-free golden run failed"
    failures=$((failures + 1))
    return
  fi
  local seed
  for seed in 1 2 3 4 5 6 7 8; do
    local got="$tmpdir/${name}_chaos.txt"
    rm -f "$got"
    local out
    out="$(OMS_FAULT_SEED=$seed "$tool" "$graph" --k 4 "$@" \
           --output "$got" 2>&1)"
    local code=$?
    if [ "$code" -eq 0 ]; then
      if ! cmp -s "$golden" "$got"; then
        echo "FAIL [$name seed $seed]: completed with different output"
        failures=$((failures + 1))
      fi
    elif [ "$code" -eq 1 ] && printf '%s' "$out" | grep -q "error:"; then
      : # clean injected failure
    else
      echo "FAIL [$name seed $seed]: exit $code"
      echo "$out" | sed 's/^/    /'
      failures=$((failures + 1))
    fi
  done
  echo "ok   [$name chaos sweep]"
}

chaos_sweep inmem
chaos_sweep seq --from-disk
chaos_sweep pipelined --pipeline
chaos_sweep buffered --algo buffered --from-disk --buffer-size 512
chaos_sweep window --algo window --from-disk --window-size 256

if [ "$failures" -ne 0 ]; then
  echo "$failures checkpoint smoke check(s) failed"
  exit 1
fi
echo "all checkpoint smoke checks passed"
