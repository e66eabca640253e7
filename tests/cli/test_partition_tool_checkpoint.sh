#!/usr/bin/env bash
# CLI checkpoint/kill/resume test: a run killed right after a snapshot (via
# the deterministic OMS_FAULTS=checkpoint.die fault) must resume from its
# checkpoint into a partition bit-identical to an uninterrupted run, and
# every resume-validation failure (missing/corrupt/mismatched checkpoint)
# must exit 2 with a clean "error:" message. Also covers the --on-error
# skip policy and the flag-combination conflicts around checkpointing.
# Usage: test_partition_tool_checkpoint.sh <path-to-partition_tool>
set -u

tool="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

failures=0

check_clean_error() {
  local name="$1"
  local expected_exit="$2"
  shift 2
  local out
  out="$("$@" 2>&1)"
  local code=$?
  if [ "$code" -ne "$expected_exit" ]; then
    echo "FAIL [$name]: exit $code, expected $expected_exit"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  if [ "$code" -ne 0 ] && ! printf '%s' "$out" | grep -q "error:"; then
    echo "FAIL [$name]: no 'error:' message in output"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  echo "ok   [$name]"
}

check_identical() {
  local name="$1"
  local a="$2"
  local b="$3"
  if cmp -s "$a" "$b"; then
    echo "ok   [$name]"
  else
    echo "FAIL [$name]: resumed partition differs from the uninterrupted run"
    failures=$((failures + 1))
  fi
}

# A ring large enough for several checkpoint snapshots.
graph="$tmpdir/ring.graph"
awk 'BEGIN {
  n = 2000;
  printf "%d %d\n", n, n;
  for (i = 1; i <= n; i++) {
    l = i - 1; if (l < 1) l = n;
    r = i + 1; if (r > n) r = 1;
    printf "%d %d\n", l, r;
  }
}' > "$graph"

# --- kill + resume is bit-identical, per checkpointable algorithm -----------

for algo in oms fennel ldg hashing; do
  base="$tmpdir/${algo}_base.txt"
  resumed="$tmpdir/${algo}_resumed.txt"
  ckpt="$tmpdir/${algo}.ckpt"
  check_clean_error "$algo uninterrupted baseline" 0 \
    "$tool" "$graph" --k 4 --algo "$algo" --from-disk --output "$base"
  # The injected crash fires right after the first snapshot is durable.
  check_clean_error "$algo killed after snapshot" 1 \
    env OMS_FAULTS=checkpoint.die@1 \
    "$tool" "$graph" --k 4 --algo "$algo" \
    --checkpoint "$ckpt" --checkpoint-every 512 --output "$resumed"
  check_clean_error "$algo resume" 0 \
    "$tool" "$graph" --k 4 --algo "$algo" --resume "$ckpt" --output "$resumed"
  check_identical "$algo resumed run matches baseline" "$base" "$resumed"
done

# Buffered, both inner engines (the checkpoint carries the engine id).
for engine in lp multilevel; do
  base="$tmpdir/buffered_${engine}_base.txt"
  resumed="$tmpdir/buffered_${engine}_resumed.txt"
  ckpt="$tmpdir/buffered_${engine}.ckpt"
  check_clean_error "buffered $engine uninterrupted baseline" 0 \
    "$tool" "$graph" --k 4 --algo buffered --buffered-engine "$engine" \
    --from-disk --buffer-size 256 --output "$base"
  check_clean_error "buffered $engine killed after snapshot" 1 \
    env OMS_FAULTS=checkpoint.die@1 \
    "$tool" "$graph" --k 4 --algo buffered --buffered-engine "$engine" \
    --buffer-size 256 --checkpoint "$ckpt" --checkpoint-every 512 \
    --output "$resumed"
  check_clean_error "buffered $engine resume" 0 \
    "$tool" "$graph" --k 4 --algo buffered --buffered-engine "$engine" \
    --buffer-size 256 --resume "$ckpt" --output "$resumed"
  check_identical "buffered $engine resumed run matches baseline" \
    "$base" "$resumed"
done

# The reader thread (--pipeline) checkpoints and resumes the same way: its
# snapshots record the position after the last consumed batch.
for algo in fennel buffered; do
  ckpt="$tmpdir/${algo}_pipelined.ckpt"
  resumed="$tmpdir/${algo}_pipelined_resumed.txt"
  base="$tmpdir/${algo}_base.txt"
  [ "$algo" = buffered ] && base="$tmpdir/buffered_lp_base.txt"
  check_clean_error "$algo --pipeline killed after snapshot" 1 \
    env OMS_FAULTS=checkpoint.die@1 \
    "$tool" "$graph" --k 4 --algo "$algo" --buffer-size 256 --pipeline \
    --checkpoint "$ckpt" --checkpoint-every 512 --output "$resumed"
  check_clean_error "$algo --pipeline resume" 0 \
    "$tool" "$graph" --k 4 --algo "$algo" --buffer-size 256 --pipeline \
    --resume "$ckpt" --output "$resumed"
  check_identical "$algo --pipeline resumed run matches baseline" \
    "$base" "$resumed"
done

# Resume may keep checkpointing onward: kill again later, resume again.
ckpt="$tmpdir/chain.ckpt"
chain="$tmpdir/chain.txt"
check_clean_error "chained kill #1" 1 \
  env OMS_FAULTS=checkpoint.die@1 \
  "$tool" "$graph" --k 4 --algo fennel \
  --checkpoint "$ckpt" --checkpoint-every 400
check_clean_error "chained kill #2 (post-resume)" 1 \
  env OMS_FAULTS=checkpoint.die@1 \
  "$tool" "$graph" --k 4 --algo fennel \
  --checkpoint "$ckpt" --checkpoint-every 400 --resume "$ckpt"
check_clean_error "chained final resume" 0 \
  "$tool" "$graph" --k 4 --algo fennel --resume "$ckpt" --output "$chain"
check_identical "chained resume matches baseline" "$tmpdir/fennel_base.txt" "$chain"

# --- resume validation: every refusal is exit 2 with error: -----------------

good_ckpt="$tmpdir/fennel.ckpt" # written by the fennel kill above (k=4)

check_clean_error "resume from missing file" 2 \
  "$tool" "$graph" --k 4 --algo fennel --resume "$tmpdir/nope.ckpt"
check_clean_error "resume with wrong algorithm" 2 \
  "$tool" "$graph" --k 4 --algo ldg --resume "$good_ckpt"
check_clean_error "resume with wrong k" 2 \
  "$tool" "$graph" --k 8 --algo fennel --resume "$good_ckpt"
check_clean_error "resume with wrong seed" 2 \
  "$tool" "$graph" --k 4 --algo fennel --seed 99 --resume "$good_ckpt"
check_clean_error "resume with wrong engine" 2 \
  "$tool" "$graph" --k 4 --algo buffered --buffered-engine multilevel \
  --resume "$tmpdir/buffered_lp.ckpt"

# Unsupported version: patch the u32 version field at byte offset 8.
ver_ckpt="$tmpdir/version.ckpt"
cp "$good_ckpt" "$ver_ckpt"
printf '\x09' | dd of="$ver_ckpt" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
check_clean_error "resume from future-version checkpoint" 2 \
  "$tool" "$graph" --k 4 --algo fennel --resume "$ver_ckpt"

# A flipped payload byte must be caught by the CRC, never resumed from.
bad_ckpt="$tmpdir/corrupt.ckpt"
cp "$good_ckpt" "$bad_ckpt"
printf '\xff' | dd of="$bad_ckpt" bs=1 seek=60 count=1 conv=notrunc 2>/dev/null
check_clean_error "resume from corrupt checkpoint" 2 \
  "$tool" "$graph" --k 4 --algo fennel --resume "$bad_ckpt"

# A truncated checkpoint is refused too.
trunc_ckpt="$tmpdir/trunc.ckpt"
head -c 40 "$good_ckpt" > "$trunc_ckpt"
check_clean_error "resume from truncated checkpoint" 2 \
  "$tool" "$graph" --k 4 --algo fennel --resume "$trunc_ckpt"

# --- flag conflicts ---------------------------------------------------------

check_clean_error "checkpoint with --pipeline" 2 \
  "$tool" "$graph" --k 4 --checkpoint "$tmpdir/x.ckpt" --pipeline \
  --io-threads 2
check_clean_error "checkpoint with window algo" 2 \
  "$tool" "$graph" --k 4 --algo window --checkpoint "$tmpdir/x.ckpt"
printf '0 1\n1 2\n' > "$tmpdir/tiny.edgelist"
check_clean_error "checkpoint on an edge list" 2 \
  "$tool" "$tmpdir/tiny.edgelist" --k 2 --checkpoint "$tmpdir/x.ckpt"
check_clean_error "zero checkpoint cadence" 2 \
  "$tool" "$graph" --k 4 --checkpoint "$tmpdir/x.ckpt" --checkpoint-every 0

# --- --on-error skip policy -------------------------------------------------

# One malformed line: abort policy fails, skip policy completes and reports.
awk 'BEGIN {
  n = 200;
  printf "%d %d\n", n, n;
  for (i = 1; i <= n; i++) {
    if (i == 100) { printf "xyz\n"; continue; }
    l = i - 1; if (l < 1) l = n;
    r = i + 1; if (r > n) r = 1;
    printf "%d %d\n", l, r;
  }
}' > "$tmpdir/oneline.graph"
check_clean_error "malformed line aborts by default" 1 \
  "$tool" "$tmpdir/oneline.graph" --k 2 --from-disk
skip_out="$("$tool" "$tmpdir/oneline.graph" --k 2 --from-disk --on-error skip 2>&1)"
if [ $? -ne 0 ]; then
  echo "FAIL [skip policy completes]: non-zero exit"
  echo "$skip_out" | sed 's/^/    /'
  failures=$((failures + 1))
elif ! printf '%s' "$skip_out" | grep -q "skipped 1 malformed line"; then
  echo "FAIL [skip policy completes]: missing skip summary"
  echo "$skip_out" | sed 's/^/    /'
  failures=$((failures + 1))
else
  echo "ok   [skip policy completes]"
fi

# The buffered model applies the same policy: the skipped line becomes an
# isolated node.
skip_out="$("$tool" "$tmpdir/oneline.graph" --k 2 --algo buffered --from-disk \
  --on-error skip 2>&1)"
if [ $? -ne 0 ]; then
  echo "FAIL [buffered skip policy completes]: non-zero exit"
  echo "$skip_out" | sed 's/^/    /'
  failures=$((failures + 1))
elif ! printf '%s' "$skip_out" | grep -q "skipped 1 malformed line"; then
  echo "FAIL [buffered skip policy completes]: missing skip summary"
  echo "$skip_out" | sed 's/^/    /'
  failures=$((failures + 1))
else
  echo "ok   [buffered skip policy completes]"
fi

# An exhausted skip budget turns back into a clean failure.
check_clean_error "skip budget exhausts" 1 \
  "$tool" "$tmpdir/oneline.graph" --k 2 --from-disk --on-error skip \
  --error-budget 0

# skip needs a streaming path to act on.
check_clean_error "skip without --from-disk" 2 \
  "$tool" "$tmpdir/oneline.graph" --k 2 --on-error skip

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI checkpoint check(s) failed"
  exit 1
fi
echo "all CLI checkpoint checks passed"
