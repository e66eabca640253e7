#!/usr/bin/env bash
# CLI error-channel test: malformed graph *content* — METIS on the
# --from-disk streaming path, the pipelined path, and the in-memory loader,
# plus edge-list inputs on the sequential and pipelined vertex-cut paths —
# must make partition_tool exit non-zero with a clean "error:" message —
# never SIGABRT (exit 134).
# Usage: test_partition_tool_errors.sh <path-to-partition_tool>
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

# A well-formed control file: the tool must still succeed on it.
printf '3 2\n2\n1 3\n2\n' > "$tmpdir/good.graph"
check_clean_error "well-formed control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --from-disk

# Malformed header.
printf 'not a header\n' > "$tmpdir/badheader.graph"
check_clean_error "malformed header" 1 \
  "$tool" "$tmpdir/badheader.graph" --k 2 --from-disk

# An fmt field that is not binary digits: a weighted path read as unweighted
# would be another graph, so every route rejects the header line.
printf '4 3 2\n2 1\n1 1 3 2\n2 2 4 3\n3 3\n' > "$tmpdir/badfmt.graph"
check_clean_error "fmt 2 from disk" 1 \
  "$tool" "$tmpdir/badfmt.graph" --k 2 --from-disk
check_clean_error "fmt 2 in memory" 1 \
  "$tool" "$tmpdir/badfmt.graph" --k 2
printf '4 3 -1\n2\n1 3\n2 4\n3\n' > "$tmpdir/negfmt.graph"
check_clean_error "fmt -1 pipelined" 1 \
  "$tool" "$tmpdir/negfmt.graph" --k 2 --pipeline

# Out-of-range neighbor id.
printf '2 1\n2\n9\n' > "$tmpdir/range.graph"
check_clean_error "neighbor out of range" 1 \
  "$tool" "$tmpdir/range.graph" --k 2 --from-disk

# Edge-weight flag set but a weight is missing.
printf '2 1 1\n2 5\n1\n' > "$tmpdir/noweight.graph"
check_clean_error "missing edge weight" 1 \
  "$tool" "$tmpdir/noweight.graph" --k 2 --from-disk

# Non-numeric token in an adjacency list.
printf '2 1\n2\nxyz\n' > "$tmpdir/garbage.graph"
check_clean_error "non-numeric token" 1 \
  "$tool" "$tmpdir/garbage.graph" --k 2 --from-disk

# The pipelined path (producer thread) must surface the same errors cleanly.
check_clean_error "pipelined well-formed control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --pipeline --io-threads 2
check_clean_error "pipelined neighbor out of range" 1 \
  "$tool" "$tmpdir/range.graph" --k 2 --pipeline
check_clean_error "pipelined non-numeric token" 1 \
  "$tool" "$tmpdir/garbage.graph" --k 2 --pipeline --io-threads 2

# The in-memory loader (no --from-disk) now rides the IoError channel too.
check_clean_error "in-memory neighbor out of range" 1 \
  "$tool" "$tmpdir/range.graph" --k 2
check_clean_error "in-memory malformed header" 1 \
  "$tool" "$tmpdir/badheader.graph" --k 2

# Edge weights below 1 are malformed on every route: exit 1 naming the file
# and line, never SIGABRT in memory and never a silent partition from disk.
check_position_error() {
  local name="$1"
  local file="$2"
  local line="$3"
  shift 3
  local out
  out="$("$tool" "$file" --k 2 "$@" 2>&1)"
  local code=$?
  if [ "$code" -eq 1 ] && printf '%s' "$out" | grep -qF "error: $file:$line:"; then
    echo "ok   [$name]"
  else
    echo "FAIL [$name]: exit $code, expected 1 with 'error: $file:$line:'"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
  fi
}
printf '2 1 1\n2 -3\n1 -3\n' > "$tmpdir/negweight.graph"
printf '3 2 1\n2 1\n1 1 3 0\n2 0\n' > "$tmpdir/zeroweight.graph"
check_position_error "in-memory negative edge weight" "$tmpdir/negweight.graph" 2
check_position_error "from-disk negative edge weight" "$tmpdir/negweight.graph" 2 \
  --from-disk
check_position_error "in-memory zero edge weight" "$tmpdir/zeroweight.graph" 3
check_position_error "from-disk zero edge weight" "$tmpdir/zeroweight.graph" 3 \
  --from-disk

# A header that claims an absurd edge count is a content error on the
# in-memory loader (exit 1, the header-count message), never an allocation
# failure ("out of memory loading") or a SIGABRT from std::length_error.
check_lying_header() {
  local name="$1"
  local file="$2"
  local out
  out="$("$tool" "$file" --k 2 2>&1)"
  local code=$?
  if [ "$code" -eq 1 ] &&
     printf '%s' "$out" | grep -qF "edge count disagrees with METIS header" &&
     ! printf '%s' "$out" | grep -qF "out of memory loading"; then
    echo "ok   [$name]"
  else
    echo "FAIL [$name]: exit $code, expected 1 with the header-count message"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
  fi
}
printf '3 1000000000000000\n2\n1 3\n2\n' > "$tmpdir/lying15.graph"
printf '3 9223372036854775807\n2\n1 3\n2\n' > "$tmpdir/lying63.graph"
check_lying_header "in-memory header m = 10^15" "$tmpdir/lying15.graph"
check_lying_header "in-memory header m = 2^63 - 1" "$tmpdir/lying63.graph"

# --- Disk-native buffered and window models ---------------------------------

# Both stream from disk now: well-formed controls must succeed, sequential
# and pipelined, with the new tuning flags accepted.
check_clean_error "buffered from-disk control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --from-disk \
  --buffer-size 2 --refine-iters 1
check_clean_error "buffered pipelined control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --pipeline
check_clean_error "window from-disk control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --from-disk --window-size 2
check_clean_error "window pipelined control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --pipeline
check_clean_error "buffered in-memory with flags" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffer-size 100 \
  --refine-iters 0
check_clean_error "window in-memory with flags" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --window-size 10

# IoError mid-buffer: malformed content must exit 1 from the buffered and
# window disk drivers (sequential and pipelined), never hang or SIGABRT.
check_clean_error "buffered from-disk neighbor out of range" 1 \
  "$tool" "$tmpdir/range.graph" --k 2 --algo buffered --from-disk
check_clean_error "buffered pipelined non-numeric token" 1 \
  "$tool" "$tmpdir/garbage.graph" --k 2 --algo buffered --pipeline
check_clean_error "window from-disk non-numeric token" 1 \
  "$tool" "$tmpdir/garbage.graph" --k 2 --algo window --from-disk
check_clean_error "window pipelined neighbor out of range" 1 \
  "$tool" "$tmpdir/range.graph" --k 2 --algo window --pipeline

# One ordered consumer: the window, the buffered model and the vertex-cut
# assigners commit in stream order, so --pipeline takes only --io-threads 1
# there; anything else is a single exit-2 diagnostic.
check_clean_error "window pipelined multi-consumer" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --pipeline --io-threads 2
check_clean_error "window pipelined all-hardware consumers" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --pipeline --io-threads 0
check_clean_error "buffered pipelined multi-consumer" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --pipeline --io-threads 2

# Flag validation: out-of-range tuning values are usage errors (exit 2).
check_clean_error "zero buffer size" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffer-size 0
check_clean_error "negative refine iterations" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --refine-iters -1
check_clean_error "zero window size" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --window-size 0
check_clean_error "buffer size beyond the node-id range" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffer-size 99999999999
check_clean_error "negative thread count" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --threads -1

# --- Buffered inner-engine selection ----------------------------------------

# Both engines are accepted on every buffered entry point; the multilevel
# engine must work from disk and pipelined too.
check_clean_error "buffered lp engine control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffered-engine lp
check_clean_error "buffered multilevel engine control" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffered-engine multilevel
check_clean_error "buffered multilevel engine from-disk" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffered-engine multilevel \
  --from-disk
check_clean_error "buffered multilevel engine pipelined" 0 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffered-engine multilevel \
  --pipeline

# Bad engine values and engine flags on non-buffered algorithms are usage
# errors (exit 2).
check_clean_error "unknown buffered engine" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo buffered --buffered-engine turbo
check_clean_error "engine flag with window algo" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo window --buffered-engine multilevel

# Node-weighted graphs cannot stream from disk (Lmax needs the total weight
# upfront): rejected before any parsing with the usage-level exit code.
printf '2 1 10\n5 2\n7 1\n' > "$tmpdir/weighted.graph"
check_clean_error "buffered from-disk node-weighted graph" 2 \
  "$tool" "$tmpdir/weighted.graph" --k 2 --algo buffered --from-disk

# --- Edge-list (vertex-cut) inputs -----------------------------------------

# A well-formed control file (extension autodetection picks the format).
printf '# comment\n0 1\n1 2\n2 0\n' > "$tmpdir/good.edgelist"
check_clean_error "edgelist well-formed control" 0 \
  "$tool" "$tmpdir/good.edgelist" --k 2
check_clean_error "edgelist pipelined control" 0 \
  "$tool" "$tmpdir/good.edgelist" --k 2 --pipeline
check_clean_error "edgelist explicit --format override" 0 \
  "$tool" "$tmpdir/good.edgelist" --format edgelist --algo dbh --k 2
check_clean_error "edgelist pipelined multi-consumer" 2 \
  "$tool" "$tmpdir/good.edgelist" --k 2 --pipeline --io-threads 2

# Non-numeric endpoint.
printf '0 1\n2 xyz\n' > "$tmpdir/garbage.edgelist"
check_clean_error "edgelist non-numeric endpoint" 1 \
  "$tool" "$tmpdir/garbage.edgelist" --k 2
check_clean_error "edgelist pipelined non-numeric endpoint" 1 \
  "$tool" "$tmpdir/garbage.edgelist" --k 2 --pipeline

# Truncated last line (single endpoint).
printf '0 1\n1 2\n3\n' > "$tmpdir/trunc.edgelist"
check_clean_error "edgelist truncated last line" 1 \
  "$tool" "$tmpdir/trunc.edgelist" --k 2
check_clean_error "edgelist pipelined truncated last line" 1 \
  "$tool" "$tmpdir/trunc.edgelist" --k 2 --pipeline

# Empty file (and a comments-only file is just as empty).
: > "$tmpdir/empty.edgelist"
printf '# nothing\n# here\n' > "$tmpdir/comments.edgelist"
check_clean_error "edgelist empty file" 1 \
  "$tool" "$tmpdir/empty.edgelist" --k 2
check_clean_error "edgelist pipelined empty file" 1 \
  "$tool" "$tmpdir/empty.edgelist" --k 2 --pipeline
check_clean_error "edgelist comments-only file" 1 \
  "$tool" "$tmpdir/comments.edgelist" --k 2

# Format/algo mismatches are usage errors (exit 2), not IoErrors.
check_clean_error "edgelist algo on metis input" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --algo hdrf
check_clean_error "node algo on edgelist input" 2 \
  "$tool" "$tmpdir/good.edgelist" --k 2 --algo fennel
check_clean_error "engine flag with edgelist algo" 2 \
  "$tool" "$tmpdir/good.edgelist" --k 2 --algo dbh --buffered-engine lp

# --- Flag-syntax errors (the shared oms::cli parser) ------------------------
# Every bad-flag path exits 2 with an "error:" line before the usage text —
# the tools share one parser, so these hold for oms_serve as well.
check_clean_error "unknown option" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --frobnicate
check_clean_error "missing value for flag" 2 \
  "$tool" "$tmpdir/good.graph" --k
check_clean_error "non-numeric k" 2 \
  "$tool" "$tmpdir/good.graph" --k lots
check_clean_error "non-numeric epsilon" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --epsilon wide
check_clean_error "negative seed rejected as u64" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 --seed -1
check_clean_error "no input graph" 2 \
  "$tool" --k 2

# --- Streaming from a pipe -------------------------------------------------

# --from-disk opens the input once, so a FIFO streams exactly like the
# regular file. (The writer is bounded so a failed run cannot hang it.)
mkfifo "$tmpdir/fifo.graph"
"$tool" "$tmpdir/good.graph" --k 2 --from-disk --output "$tmpdir/file.part" \
  > /dev/null 2>&1
timeout 20 sh -c 'cat "$1" > "$2"' sh "$tmpdir/good.graph" "$tmpdir/fifo.graph" &
writer=$!
"$tool" "$tmpdir/fifo.graph" --k 2 --from-disk --output "$tmpdir/fifo.part" \
  > /dev/null 2>&1
code=$?
wait "$writer"
if [ "$code" -eq 0 ] && cmp -s "$tmpdir/file.part" "$tmpdir/fifo.part"; then
  echo "ok   [--from-disk from a pipe matches the regular file]"
else
  echo "FAIL [--from-disk from a pipe matches the regular file]: exit $code"
  failures=$((failures + 1))
fi
# Resuming seeks back into the input, which a pipe cannot do.
check_clean_error "--resume from a pipe" 2 \
  "$tool" "$tmpdir/fifo.graph" --k 2 --resume "$tmpdir/none.ckpt"

# --- Observability flags ----------------------------------------------------

# --metrics-out and --progress must leave stdout byte-identical to a plain
# run: the heartbeat goes to stderr, the JSON to the file. Between any two
# runs only the wall-clock timings and the peak RSS (which varies most under
# ASan) may differ, so normalize those fields; every other byte is compared.
normalize_times() {
  sed -E -e 's/[0-9.e+-]+ s/T s/g' -e 's/peak RSS [0-9]+ MB/peak RSS N MB/g' "$1"
}
"$tool" "$tmpdir/good.graph" --k 2 --from-disk \
  > "$tmpdir/plain.out" 2> /dev/null
"$tool" "$tmpdir/good.graph" --k 2 --from-disk \
  --metrics-out "$tmpdir/metrics.json" --progress \
  > "$tmpdir/instrumented.out" 2> /dev/null
if cmp -s <(normalize_times "$tmpdir/plain.out") \
          <(normalize_times "$tmpdir/instrumented.out"); then
  echo "ok   [instrumented run stdout byte-identical to plain run]"
else
  echo "FAIL [instrumented run stdout byte-identical to plain run]"
  diff <(normalize_times "$tmpdir/plain.out") \
       <(normalize_times "$tmpdir/instrumented.out") | sed 's/^/    /'
  failures=$((failures + 1))
fi
if grep -q '"schema":"oms.metrics.v1"' "$tmpdir/metrics.json" &&
   grep -q '"stream.nodes":3' "$tmpdir/metrics.json"; then
  echo "ok   [--metrics-out wrote a v1 document with streamed counters]"
else
  echo "FAIL [--metrics-out document malformed or counters missing]"
  sed 's/^/    /' "$tmpdir/metrics.json" 2> /dev/null
  failures=$((failures + 1))
fi

# A sequential --from-disk run reports the cut and J it counted while
# assigning: the same two lines the in-memory run prints. Two consumers
# cannot count them, so that run prints neither.
printf '6 7\n2 3\n1 3\n1 2 4\n3 5 6\n4 6\n4 5\n' > "$tmpdir/quality.graph"
quality_lines() {
  "$tool" "$tmpdir/quality.graph" --hierarchy 2:2 --distances 1:10 "$@" \
    2> /dev/null | grep -E '^(edge-cut|mapping J):'
}
if [ "$(quality_lines --from-disk)" = "$(quality_lines)" ] &&
   [ "$(quality_lines --from-disk | wc -l)" -eq 2 ] &&
   [ -z "$(quality_lines --pipeline --io-threads 2)" ]; then
  echo "ok   [--from-disk prints the counted edge cut and mapping J]"
else
  echo "FAIL [--from-disk prints the counted edge cut and mapping J]"
  quality_lines --from-disk | sed 's/^/    /'
  failures=$((failures + 1))
fi

# An unwritable metrics path is a clean exit-2 "error:" after the summary.
check_clean_error "unwritable --metrics-out path" 2 \
  "$tool" "$tmpdir/good.graph" --k 2 \
  --metrics-out "$tmpdir/no/such/dir/metrics.json"

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error-channel check(s) failed"
  exit 1
fi
echo "all CLI error-channel checks passed"
